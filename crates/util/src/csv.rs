//! Minimal CSV reading and writing.
//!
//! Implements the subset of RFC 4180 the workspace needs: comma separator,
//! double-quote quoting with `""` escapes, LF or CRLF line endings. Used by
//! the store's import/export and by experiment binaries writing result
//! series. Built in-repo to stay inside the allowed dependency set.

use std::fmt::Write as _;

/// Split one CSV record into fields, honoring quotes.
///
/// Returns `None` if the record is malformed (unterminated quote).
pub fn parse_record(line: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    loop {
        match chars.next() {
            None => {
                if in_quotes {
                    return None;
                }
                fields.push(field);
                return Some(fields);
            }
            Some('"') if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            Some('"') if field.is_empty() && !in_quotes => in_quotes = true,
            Some(',') if !in_quotes => {
                fields.push(std::mem::take(&mut field));
            }
            Some(c) => field.push(c),
        }
    }
}

/// Render one CSV record, quoting fields that need it.
pub fn write_record(fields: &[&str]) -> String {
    let mut out = String::new();
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains([',', '"', '\n', '\r']) {
            out.push('"');
            for c in f.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out
}

/// Iterate over the non-empty lines of a CSV document with their 1-based
/// physical line numbers (blank lines are skipped but still counted; a
/// CRLF ending is stripped).
pub fn document_lines(text: &str) -> impl Iterator<Item = (usize, &str)> + '_ {
    text.lines()
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .map(|(idx, l)| (idx + 1, l))
}

/// Iterate over the records of a CSV document (handles CRLF, skips the
/// final empty line if the document ends with a newline).
pub fn parse_document(text: &str) -> impl Iterator<Item = Option<Vec<String>>> + '_ {
    document_lines(text).map(|(_, l)| parse_record(l))
}

/// A growable CSV document writer.
#[derive(Debug, Default, Clone)]
pub struct CsvWriter {
    buf: String,
}

impl CsvWriter {
    /// Create an empty writer.
    pub fn new() -> CsvWriter {
        CsvWriter::default()
    }

    /// Append a record.
    pub fn record(&mut self, fields: &[&str]) -> &mut CsvWriter {
        let _ = writeln!(self.buf, "{}", write_record(fields));
        self
    }

    /// Append a record of already-owned strings.
    pub fn record_owned(&mut self, fields: &[String]) -> &mut CsvWriter {
        let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        self.record(&refs)
    }

    /// The document produced so far.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Borrow the document produced so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{forall, gen_ascii_string, gen_vec};

    #[test]
    fn parse_plain() {
        assert_eq!(
            parse_record("a,b,c").unwrap(),
            vec!["a".to_owned(), "b".into(), "c".into()]
        );
        assert_eq!(parse_record("").unwrap(), vec!["".to_owned()]);
        assert_eq!(parse_record("a,,c").unwrap(), vec!["a", "", "c"]);
    }

    #[test]
    fn parse_quoted() {
        assert_eq!(
            parse_record(r#""a,b",c"#).unwrap(),
            vec!["a,b".to_owned(), "c".into()]
        );
        assert_eq!(
            parse_record(r#""he said ""hi""",x"#).unwrap(),
            vec![r#"he said "hi""#.to_owned(), "x".into()]
        );
    }

    #[test]
    fn parse_unterminated_quote_fails() {
        assert_eq!(parse_record(r#""abc"#), None);
    }

    #[test]
    fn write_quotes_when_needed() {
        assert_eq!(write_record(&["a", "b"]), "a,b");
        assert_eq!(write_record(&["a,b"]), "\"a,b\"");
        assert_eq!(write_record(&["say \"hi\""]), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn document_roundtrip() {
        let mut w = CsvWriter::new();
        w.record(&["h1", "h2"]);
        w.record(&["v,1", "v\"2"]);
        let doc = w.finish();
        let rows: Vec<Vec<String>> = parse_document(&doc).map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["v,1".to_owned(), "v\"2".into()]);
    }

    #[test]
    fn document_lines_count_blank_lines() {
        let lines: Vec<(usize, &str)> = document_lines("a\r\n\r\n\nb\n\nc").collect();
        assert_eq!(lines, vec![(1, "a"), (4, "b"), (6, "c")]);
    }

    #[test]
    fn document_handles_crlf() {
        let rows: Vec<Vec<String>> = parse_document("a,b\r\nc,d\r\n")
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn roundtrip_arbitrary_fields() {
        forall(
            512,
            |rng| gen_vec(rng, 1, 5, |r| gen_ascii_string(r, 0, 20)),
            |fields| {
                let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
                let line = write_record(&refs);
                let parsed = parse_record(&line).expect("own output must parse");
                assert_eq!(&parsed, fields);
            },
        );
    }
}
