//! One home per byte format (DESIGN §5k): each format primitive appears
//! in non-test source — the lines of a file under `crates/*/src` before
//! the `#[cfg(test)]` that opens a `mod` — only in the files that own it.

use std::path::{Path, PathBuf};

/// A format primitive, the files that own it, and a line that uses it.
struct Rule {
    what: &'static str,
    homes: &'static [&'static str],
    fires: fn(&str) -> bool,
    planted: &'static str,
}

const RULES: [Rule; 8] = [
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
    // The commit logs are only ever appended to and cut back to their
    // last whole frame: both moves belong to the log's one recovery rule.
    Rule {
        what: "an append-mode open or a `set_len` truncation",
        homes: &["crates/swdb/src/integrity.rs"],
        fires: |line| line.contains(".append(true)") || line.contains(".set_len("),
        planted: "    let log = OpenOptions::new().create(true).append(true).open(path)?;",
    },
    // A log's lifecycle (header on the first append, cut to whole frames
    // on resume, stop after a failure) is `AppendLog`'s alone; the ops
    // log, a plain append of lines, is the one other open.
    Rule {
        what: "the log writer's open",
        homes: &["crates/swdb/src/integrity.rs", "crates/serve/src/obs.rs"],
        fires: |line| line.contains("open_log("),
        planted: "    let file = open_log(&path, Some(whole))?;",
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

/// The non-test lines of a source file: those before the `#[cfg(test)]`
/// that opens a module (`mod tests`, inline or in its own file). A
/// `#[cfg(test)]` on any other item — a test-only `thread_local!`, say —
/// does not end the non-test part.
fn non_test_lines(text: &str) -> Vec<&str> {
    let lines: Vec<&str> = text.lines().collect();
    let opens_mod = |at: usize| {
        let next = lines[at + 1..].iter().map(|l| l.trim());
        let mut items = next.filter(|l| !l.is_empty() && !l.starts_with("#["));
        let item = items.next().unwrap_or("");
        ["mod ", "pub mod ", "pub(crate) mod "]
            .iter()
            .any(|m| item.starts_with(m))
    };
    let end = (0..lines.len())
        .find(|&at| lines[at].trim() == "#[cfg(test)]" && opens_mod(at))
        .unwrap_or(lines.len());
    lines[..end].to_vec()
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
        for (n, line) in non_test_lines(&text).into_iter().enumerate() {
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
    assert!((RULES[6].fires)("    file.set_len(whole)?;"));
    assert!((RULES[7].fires)("open_log(path, None).map(Sink::File)"));
    // Prose and look-alikes stay quiet.
    assert!(!(RULES[0].fires)("0xEDB9_8320"));
    assert!(!(RULES[0].fires)("0xEDB8__8320"));
    assert!(!(RULES[2].fires)("#HELP"));
    assert!(!(RULES[4].fires)(r#"/// the "op" key names the request"#));
    assert!(!(RULES[5].fires)(r#"field_str(line, "end", x)"#));
    assert!(!(RULES[6].fires)("    opts.append(false);"));
    assert!(!(RULES[7].fires)(
        "    let log = AppendLog::new(path, true);"
    ));
}

#[test]
fn a_test_only_item_does_not_end_the_non_test_part() {
    // An early `#[cfg(test)]` item leaves the lines after it under every
    // rule; the `#[cfg(test)]` that opens `mod tests` ends them.
    let planted = RULES[1].planted;
    let text = format!(
        "use std::fs;\n\n#[cfg(test)]\nthread_local! {{\n    static N: u8 = 0;\n}}\n\nfn save() {{\n{planted}\n}}\n\n#[cfg(test)]\nmod tests {{\n{planted}\n}}\n"
    );
    let non_test = non_test_lines(&text);
    let fired: Vec<&str> = (non_test.iter().copied())
        .filter(|l| (RULES[1].fires)(l))
        .collect();
    assert_eq!(fired, [planted], "{non_test:#?}");
    assert_eq!(non_test.last(), Some(&""), "ends before `mod tests`");
    // A module declared test-only in its own file ends it too.
    let text = "fn a() {}\n#[cfg(test)]\n#[path = \"t.rs\"]\nmod tests;\nfn b() {}\n";
    assert_eq!(non_test_lines(text), ["fn a() {}"]);
}
