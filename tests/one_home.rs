//! One home per byte format (DESIGN §5k): each format primitive appears
//! in non-test source — the lines of a file under `crates/*/src` before
//! its first `#[cfg(test)]` — only in the files that own it.

use std::path::{Path, PathBuf};

/// A format primitive, the files that own it, and a line that uses it.
struct Rule {
    what: &'static str,
    homes: &'static [&'static str],
    fires: fn(&str) -> bool,
    planted: &'static str,
}

const RULES: [Rule; 6] = [
    Rule {
        what: "the CRC32 polynomial or the FNV-1a 64 offset basis",
        homes: &["crates/swdb/src/integrity.rs"],
        fires: |line| {
            line.match_indices("0x").any(|(at, _)| {
                let hex = &line[at + 2..];
                loose_prefix(hex, "edb8_?8320") || loose_prefix(hex, "cbf2_?9ce4_?8422_?2325")
            })
        },
        planted: "const POLY: u32 = 0xEDB8_8320;",
    },
    Rule {
        what: "a file rename",
        homes: &["crates/swdb/src/integrity.rs"],
        fires: |line| line.contains("fs::rename"),
        planted: "    std::fs::rename(&tmp, path)?;",
    },
    Rule {
        what: "a Prometheus `# HELP` or `# TYPE` line",
        homes: &["crates/trace/src/export.rs", "crates/trace/src/validate.rs"],
        fires: |line| line.contains("# HELP ") || line.contains("# TYPE "),
        planted: r##"    writeln!(out, "# TYPE {name} counter")?;"##,
    },
    Rule {
        what: "a socket half-close",
        homes: &["crates/serve/src/transport.rs"],
        fires: |line| line.contains("shutdown_write"),
        planted: "    stream.shutdown_write()?;",
    },
    // Request lines and the submit stream's end marker: the key inside a
    // Rust string literal, or as a field lookup. Doc-comment prose writes
    // the key unescaped and is not matched.
    Rule {
        what: "the request's `op` key",
        homes: &["crates/serve/src/client.rs"],
        fires: |line| wire_key(line, "op"),
        planted: r#"    let op = json::field_str(line, "op")?;"#,
    },
    Rule {
        what: "the submit stream's `end` key",
        homes: &["crates/serve/src/client.rs"],
        fires: |line| wire_key(line, "end"),
        planted: r#"    out.write_all(b"{\"end\":true}\n")?;"#,
    },
];

/// `text` starts with `pattern`, where letters match in either case and
/// `_?` stands for an optional underscore.
fn loose_prefix(text: &str, pattern: &str) -> bool {
    let (mut text, mut pattern) = (text.as_bytes(), pattern.as_bytes());
    while let Some((&want, rest)) = pattern.split_first() {
        if let Some(rest) = rest.strip_prefix(b"?") {
            text = text.strip_prefix(&[want][..]).unwrap_or(text);
            pattern = rest;
            continue;
        }
        match text.split_first() {
            Some((&got, tail)) if got.eq_ignore_ascii_case(&want) => text = tail,
            _ => return false,
        }
        pattern = rest;
    }
    true
}

/// `\"key\"` (the key escaped inside a string literal) or `, "key")`
/// (the key as a lookup's last argument, any spaces after the comma).
fn wire_key(line: &str, key: &str) -> bool {
    let quoted = format!("\"{key}\")");
    line.contains(&format!("\\\"{key}\\\""))
        || line
            .match_indices(',')
            .any(|(at, _)| line[at + 1..].trim_start_matches(' ').starts_with(&quoted))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_format_primitive_stays_in_its_home() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let mut strays = Vec::new();
    for file in &files {
        let name = file
            .strip_prefix(root)
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(file).expect("read source");
        let non_test = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        for (n, line) in non_test.enumerate() {
            for rule in RULES.iter().filter(|r| !r.homes.contains(&name.as_str())) {
                if (rule.fires)(line) {
                    strays.push(format!(
                        "{name}:{}: {} belongs only in {:?}: {line}",
                        n + 1,
                        rule.what,
                        rule.homes
                    ));
                }
            }
        }
    }
    assert!(strays.is_empty(), "\n{}", strays.join("\n"));
}

#[test]
fn every_rule_fires_on_its_planted_line() {
    for rule in &RULES {
        assert!(
            (rule.fires)(rule.planted),
            "{}: {}",
            rule.what,
            rule.planted
        );
    }
    // The forms the patterns allow beside the planted ones.
    assert!((RULES[0].fires)("0xcbf29ce484222325"));
    assert!((RULES[0].fires)("0xCBF2_9CE4_8422_2325"));
    assert!((RULES[0].fires)("x = 0xedb88320;"));
    assert!((RULES[2].fires)("# HELP sw_x help"));
    assert!((RULES[4].fires)(r#"let line = "{\"op\":\"stats\"}";"#));
    assert!((RULES[5].fires)(r#"field(line,"end")"#));
    // Prose and look-alikes stay quiet.
    assert!(!(RULES[0].fires)("0xEDB9_8320"));
    assert!(!(RULES[0].fires)("0xEDB8__8320"));
    assert!(!(RULES[2].fires)("#HELP"));
    assert!(!(RULES[4].fires)(r#"/// the "op" key names the request"#));
    assert!(!(RULES[5].fires)(r#"field_str(line, "end", x)"#));
}
