//! Minimal flat-JSON encode/decode — the one copy in the workspace,
//! used by the serve wire protocol (re-exported as `sw_serve::json`),
//! the ops log and the JSONL trace validator.
//!
//! Every line these formats carry is one flat object with string,
//! unsigned integer and boolean values only — no nesting, no arrays.
//! That makes a full JSON parser unnecessary: lines are built with
//! [`escape`] and read back with the `field_*` extractors. The build
//! environment has no serde (the workspace serde is a no-op shim), so
//! this is the serialization layer, not a shortcut around one.

/// Escape a string for embedding in a JSON string literal. Handles the
/// two mandatory escapes plus the whitespace controls FASTA payloads
/// carry; remaining control characters take the `\u00XX` form.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape`]. Unknown escape sequences pass through verbatim
/// (minus the backslash) rather than erroring — the peer is our own
/// encoder, so anything else is already a protocol violation the
/// field extractors will surface.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let code: String = chars.by_ref().take(4).collect();
                match u32::from_str_radix(&code, 16).ok().and_then(char::from_u32) {
                    Some(c) => out.push(c),
                    None => out.push_str(&code),
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// Extract and unescape a string field `"key":"value"`.
pub fn field_str(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let mut end = None;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            end = Some(i);
            break;
        }
    }
    Some(unescape(&rest[..end?]))
}

/// Extract an unsigned integer field `"key":123`.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extract a boolean field `"key":true|false`.
pub fn field_bool(line: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips_fasta_payloads() {
        let fasta = ">q1 test \"query\"\nMKV\\LST\r\n\tACDE";
        let escaped = escape(fasta);
        assert!(!escaped.contains('\n'), "stays on one line");
        assert_eq!(unescape(&escaped), fasta);
    }

    #[test]
    fn control_characters_roundtrip_as_unicode_escapes() {
        let s = "a\u{01}b";
        assert_eq!(escape(s), "a\\u0001b");
        assert_eq!(unescape(&escape(s)), s);
    }

    #[test]
    fn field_extraction_honors_escapes() {
        let line = format!(
            "{{\"op\":\"submit\",\"query\":\"{}\",\"top\":10,\"wait\":true}}",
            escape(">q \"x\"\nMKV")
        );
        assert_eq!(field_str(&line, "op").as_deref(), Some("submit"));
        assert_eq!(field_str(&line, "query").as_deref(), Some(">q \"x\"\nMKV"));
        assert_eq!(field_u64(&line, "top"), Some(10));
        assert_eq!(field_bool(&line, "wait"), Some(true));
        assert_eq!(field_str(&line, "missing"), None);
        assert_eq!(field_u64(&line, "op"), None, "string is not a number");
    }

    #[test]
    fn embedded_payload_cannot_spoof_a_field() {
        // A query whose text contains what looks like a JSON field must
        // not shadow the real one: escaping turns its quotes into \" so
        // the needle never matches inside the payload.
        let evil = ">q\n\"op\":\"shutdown\"";
        let line = format!("{{\"op\":\"submit\",\"query\":\"{}\"}}", escape(evil));
        assert_eq!(field_str(&line, "op").as_deref(), Some("submit"));
        assert_eq!(field_str(&line, "query").as_deref(), Some(evil));
    }
}
