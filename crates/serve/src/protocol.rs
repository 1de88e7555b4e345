//! The wire protocol: newline-delimited ASCII requests and responses.
//!
//! Every request is one line, `VERB [ARGS...]`, fields separated by
//! single spaces; every response is one line, except responses that
//! carry closed windows, which announce a count (`OK <n>`) followed by
//! exactly `n` `CLOSED` lines — a client always knows how many lines to
//! read before issuing its next request.
//!
//! ```text
//! PING                                  → PONG
//! INGEST <customer> <date> [<item>...]  → OK <n> then n × CLOSED lines
//! SCORE <customer>                      → SCORE <customer> <window> <value> <present> <total>
//! FLUSH <date>                          → OK <n> then n × CLOSED lines
//! SNAPSHOT                              → OK <bytes> <path>
//! STATS                                 → STATS <one-line JSON metrics report>
//! SHUTDOWN                              → OK draining
//! anything else                         → ERR <reason>
//! ```
//!
//! `<date>` is ISO `YYYY-MM-DD`; `<customer>`/`<item>` are the raw
//! integer ids. A `CLOSED` line is
//!
//! ```text
//! CLOSED <customer> <window> <value> <present> <total> <lost>
//! ```
//!
//! where `<lost>` is `-` or comma-joined `item:share` pairs. Stability
//! values are printed with Rust's shortest-roundtrip `f64` formatting,
//! so parsing them back yields the bit-identical score the offline
//! batch pipeline computes.

use attrition_core::incremental::WindowClosed;
use attrition_core::StabilityPoint;
use attrition_types::{CustomerId, Date, ItemId};
use std::fmt::Write as _;
use std::ops::Range;

/// Most members a `BATCH n` frame may announce. Bounds what a batch
/// frame can make the server buffer (n × [`MAX_LINE_BYTES`] at worst)
/// and keeps one group commit from starving concurrent connections.
///
/// [`MAX_LINE_BYTES`]: crate::server::MAX_LINE_BYTES
pub const MAX_BATCH: usize = 4096;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One receipt: customer, purchase date, basket items.
    Ingest(CustomerId, Date, Vec<ItemId>),
    /// Live (not yet closed) stability of a customer's current window.
    Score(CustomerId),
    /// Close every customer's windows before the one containing the date.
    Flush(Date),
    /// Write a checkpoint of the full sharded state to the server's
    /// snapshot path.
    Snapshot,
    /// One-line JSON metrics report.
    Stats,
    /// Graceful shutdown: drain connections, checkpoint, exit.
    Shutdown,
}

/// A request line that could not be parsed; the message is sent back
/// verbatim after `ERR `.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// A request parsed without owning its `INGEST` items: the items land
/// in a caller-provided arena and the request carries their index
/// range. This is what the batch path parses into, so a frame of
/// hundreds of `INGEST` lines shares one reusable `Vec<ItemId>` instead
/// of allocating one per op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedRequest {
    /// Liveness probe.
    Ping,
    /// One receipt; the items are `arena[range]`, in wire order
    /// (unsorted, possibly with duplicates).
    Ingest(CustomerId, Date, Range<usize>),
    /// Live stability of a customer's current window.
    Score(CustomerId),
    /// Close windows before the one containing the date.
    Flush(Date),
    /// Write the legacy snapshot.
    Snapshot,
    /// One-line JSON metrics report.
    Stats,
    /// Graceful shutdown.
    Shutdown,
}

impl ParsedRequest {
    /// The verb name, as used in per-verb metric names.
    pub fn verb(&self) -> &'static str {
        match self {
            ParsedRequest::Ping => "ping",
            ParsedRequest::Ingest(..) => "ingest",
            ParsedRequest::Score(_) => "score",
            ParsedRequest::Flush(_) => "flush",
            ParsedRequest::Snapshot => "snapshot",
            ParsedRequest::Stats => "stats",
            ParsedRequest::Shutdown => "shutdown",
        }
    }
}

impl Request {
    /// Parse one request line (without its trailing newline).
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        let mut items = Vec::new();
        let parsed = Request::parse_into(line, &mut items)?;
        Ok(match parsed {
            ParsedRequest::Ping => Request::Ping,
            ParsedRequest::Ingest(customer, date, range) => {
                debug_assert_eq!(range, 0..items.len());
                Request::Ingest(customer, date, items)
            }
            ParsedRequest::Score(customer) => Request::Score(customer),
            ParsedRequest::Flush(date) => Request::Flush(date),
            ParsedRequest::Snapshot => Request::Snapshot,
            ParsedRequest::Stats => Request::Stats,
            ParsedRequest::Shutdown => Request::Shutdown,
        })
    }

    /// [`parse`](Request::parse) without allocating on success: `INGEST`
    /// items are appended to `items` (an arena the caller reuses across
    /// ops) and the returned request indexes into it. On error the arena
    /// is restored to its incoming length, so a failed member of a batch
    /// never leaks items into a later member's range.
    pub fn parse_into(line: &str, items: &mut Vec<ItemId>) -> Result<ParsedRequest, ParseError> {
        let mut fields = line.split_ascii_whitespace();
        let verb = fields
            .next()
            .ok_or_else(|| ParseError("empty request".into()))?;
        let req = match verb {
            "PING" => ParsedRequest::Ping,
            "INGEST" => {
                let start = items.len();
                let customer = parse_customer(fields.next())?;
                let date = parse_date(fields.next())?;
                for f in fields.by_ref() {
                    match f.parse::<u32>() {
                        Ok(raw) => items.push(ItemId::new(raw)),
                        Err(_) => {
                            items.truncate(start);
                            return Err(ParseError(format!("bad item id {f:?}")));
                        }
                    }
                }
                ParsedRequest::Ingest(customer, date, start..items.len())
            }
            "SCORE" => ParsedRequest::Score(parse_customer(fields.next())?),
            "FLUSH" => ParsedRequest::Flush(parse_date(fields.next())?),
            "SNAPSHOT" => ParsedRequest::Snapshot,
            "STATS" => ParsedRequest::Stats,
            "SHUTDOWN" => ParsedRequest::Shutdown,
            other => {
                return Err(ParseError(format!(
                    "unknown verb {other:?} (expected PING, INGEST, SCORE, FLUSH, SNAPSHOT, STATS or SHUTDOWN)"
                )))
            }
        };
        // INGEST consumes the tail as items; others must be exact.
        if !matches!(req, ParsedRequest::Ingest(..)) {
            if let Some(first) = fields.next() {
                return Err(ParseError(format!(
                    "unexpected trailing field {first:?} after {verb}"
                )));
            }
        }
        Ok(req)
    }

    /// Render the request back to its canonical wire line — the exact
    /// string [`parse`](Request::parse) accepts, and the form the WAL
    /// stores for mutating verbs (rebuilt, never echoed, so recovery
    /// re-reads exactly what the server executed).
    pub fn to_line(&self) -> String {
        match self {
            Request::Ping => "PING".to_owned(),
            Request::Ingest(customer, date, items) => {
                let mut line = String::new();
                write_ingest_line(&mut line, *customer, *date, items);
                line
            }
            Request::Score(customer) => format!("SCORE {}", customer.raw()),
            Request::Flush(date) => {
                let mut line = String::new();
                write_flush_line(&mut line, *date);
                line
            }
            Request::Snapshot => "SNAPSHOT".to_owned(),
            Request::Stats => "STATS".to_owned(),
            Request::Shutdown => "SHUTDOWN".to_owned(),
        }
    }
}

/// Append a canonical `INGEST` line (no newline) to `out` — the exact
/// bytes [`Request::to_line`] produces, without the intermediate
/// `String`. This is the WAL encoder of the batch path: the items are
/// written in the order given (the wire order), so a batched op logs
/// byte-identically to the unbatched `to_line` path.
pub fn write_ingest_line(out: &mut String, customer: CustomerId, date: Date, items: &[ItemId]) {
    let _ = write!(out, "INGEST {} {date}", customer.raw());
    for item in items {
        let _ = write!(out, " {}", item.raw());
    }
}

/// Append a canonical `FLUSH` line (no newline) to `out`.
pub fn write_flush_line(out: &mut String, date: Date) {
    let _ = write!(out, "FLUSH {date}");
}

/// Recognize and validate a `BATCH n` frame header.
///
/// Returns `None` when the line's first field is not `BATCH` (an
/// ordinary single-op line), `Some(Ok(n))` for a well-formed header
/// announcing `n` member lines (`1 ≤ n ≤ MAX_BATCH`), and
/// `Some(Err(_))` for a malformed header — `BATCH 0`, a non-numeric or
/// oversize count, or trailing fields. A malformed header is answered
/// with a single `ERR` and consumes only the header line, so the
/// connection framing stays intact.
pub fn parse_batch_header(line: &str) -> Option<Result<usize, ParseError>> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next() != Some("BATCH") {
        return None;
    }
    Some((|| {
        let f = fields
            .next()
            .ok_or_else(|| ParseError("missing batch size after BATCH".into()))?;
        let n: usize = f
            .parse()
            .map_err(|_| ParseError(format!("bad batch size {f:?}")))?;
        if n == 0 {
            return Err(ParseError("batch size must be at least 1".into()));
        }
        if n > MAX_BATCH {
            return Err(ParseError(format!(
                "batch size {n} exceeds the maximum of {MAX_BATCH}"
            )));
        }
        if let Some(extra) = fields.next() {
            return Err(ParseError(format!(
                "unexpected trailing field {extra:?} after BATCH"
            )));
        }
        Ok(n)
    })())
}

/// The member lines of one frame, however they are stored. The server
/// hands the engine a [`PackedLines`] view over its reusable
/// per-connection buffers (a single request line is a pack of one);
/// tests and simple callers can pass a `Vec<String>`. Object-safe so
/// `dyn Service` can take frames.
pub trait BatchLines {
    /// Number of member lines.
    fn len(&self) -> usize;
    /// The `i`th member line (newline already stripped).
    fn line(&self, i: usize) -> &str;
    /// True when the batch has no members (never the case for frames
    /// that passed [`parse_batch_header`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A batch of member lines packed end-to-end in one string buffer, each
/// member a `(start, end)` byte range — the zero-allocation carrier the
/// server reuses across frames.
pub struct PackedLines<'a> {
    buf: &'a str,
    bounds: &'a [(usize, usize)],
}

impl<'a> PackedLines<'a> {
    /// View `bounds.len()` member lines packed inside `buf`.
    pub fn new(buf: &'a str, bounds: &'a [(usize, usize)]) -> PackedLines<'a> {
        PackedLines { buf, bounds }
    }
}

impl BatchLines for PackedLines<'_> {
    fn len(&self) -> usize {
        self.bounds.len()
    }
    fn line(&self, i: usize) -> &str {
        let (start, end) = self.bounds[i];
        &self.buf[start..end]
    }
}

impl<S: AsRef<str>> BatchLines for Vec<S> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }
    fn line(&self, i: usize) -> &str {
        self[i].as_ref()
    }
}

/// Split a frame body — member responses, `'\n'`-separated — back into
/// one response per member. Member responses are self-describing
/// (`OK <n>` announces `n` follow-up `CLOSED` lines), so the split needs
/// no other framing; each item keeps its inner newlines and drops the
/// separator after it.
pub fn member_responses(body: &str) -> impl Iterator<Item = &str> {
    let mut rest = body;
    std::iter::from_fn(move || {
        let first = rest.split('\n').next().filter(|line| !line.is_empty())?;
        let follow = first
            .strip_prefix("OK ")
            .and_then(|count| count.parse::<usize>().ok())
            .unwrap_or(0);
        let end = rest
            .match_indices('\n')
            .nth(follow)
            .map_or(rest.len(), |(at, _)| at);
        let (member, tail) = rest.split_at(end);
        rest = tail.strip_prefix('\n').unwrap_or(tail);
        Some(member)
    })
}

fn parse_customer(field: Option<&str>) -> Result<CustomerId, ParseError> {
    let f = field.ok_or_else(|| ParseError("missing customer id".into()))?;
    f.parse::<u64>()
        .map(CustomerId::new)
        .map_err(|_| ParseError(format!("bad customer id {f:?}")))
}

fn parse_date(field: Option<&str>) -> Result<Date, ParseError> {
    let f = field.ok_or_else(|| ParseError("missing date".into()))?;
    Date::parse_iso(f).map_err(|e| ParseError(format!("bad date {f:?}: {e}")))
}

/// Render one `CLOSED` line (no trailing newline).
pub fn format_closed(closed: &WindowClosed) -> String {
    let mut out = String::new();
    format_closed_into(&mut out, closed);
    out
}

/// Append one `CLOSED` line (no trailing newline) to `out` without
/// intermediate allocations — byte-identical to [`format_closed`].
pub fn format_closed_into(out: &mut String, closed: &WindowClosed) {
    let _ = write!(
        out,
        "CLOSED {} {} {} {} {} ",
        closed.customer.raw(),
        closed.point.window.raw(),
        closed.point.value,
        closed.point.present_significance,
        closed.point.total_significance,
    );
    if closed.explanation.lost.is_empty() {
        out.push('-');
    } else {
        for (i, l) in closed.explanation.lost.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", l.item.raw(), l.share);
        }
    }
}

/// Render a `SCORE` response line (no trailing newline).
pub fn format_score(customer: CustomerId, point: &StabilityPoint) -> String {
    let mut out = String::new();
    format_score_into(&mut out, customer, point);
    out
}

/// Append a `SCORE` response line (no trailing newline) to `out`.
pub fn format_score_into(out: &mut String, customer: CustomerId, point: &StabilityPoint) {
    let _ = write!(
        out,
        "SCORE {} {} {} {} {}",
        customer.raw(),
        point.window.raw(),
        point.value,
        point.present_significance,
        point.total_significance
    );
}

/// A score parsed back from a [`format_closed`]/[`format_score`] line —
/// what the load generator and the tests consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParsedScore {
    /// The customer.
    pub customer: u64,
    /// The window index.
    pub window: u32,
    /// The stability value, bit-identical to the server's `f64`.
    pub value: f64,
    /// Present significance of the window.
    pub present: f64,
    /// Total significance of the history.
    pub total: f64,
}

/// Parse a `CLOSED` or `SCORE` line produced by this module.
pub fn parse_score_line(line: &str) -> Result<ParsedScore, ParseError> {
    let fields: Vec<&str> = line.split_ascii_whitespace().collect();
    if fields.len() < 6 || (fields[0] != "CLOSED" && fields[0] != "SCORE") {
        return Err(ParseError(format!("not a score line: {line:?}")));
    }
    let num = |i: usize| -> Result<f64, ParseError> {
        fields[i]
            .parse()
            .map_err(|_| ParseError(format!("bad number {:?} in {line:?}", fields[i])))
    };
    Ok(ParsedScore {
        customer: fields[1]
            .parse()
            .map_err(|_| ParseError(format!("bad customer in {line:?}")))?,
        window: fields[2]
            .parse()
            .map_err(|_| ParseError(format!("bad window in {line:?}")))?,
        value: num(3)?,
        present: num(4)?,
        total: num(5)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_core::StabilityParams;
    use attrition_store::WindowSpec;
    use attrition_types::Basket;

    #[test]
    fn parses_every_verb() {
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(
            Request::parse("INGEST 7 2012-05-02 1 2 3").unwrap(),
            Request::Ingest(
                CustomerId::new(7),
                Date::from_ymd(2012, 5, 2).unwrap(),
                vec![ItemId::new(1), ItemId::new(2), ItemId::new(3)]
            )
        );
        // Empty basket is legal (a visit with no tracked items).
        assert_eq!(
            Request::parse("INGEST 7 2012-05-02").unwrap(),
            Request::Ingest(
                CustomerId::new(7),
                Date::from_ymd(2012, 5, 2).unwrap(),
                vec![]
            )
        );
        assert_eq!(
            Request::parse("SCORE 9").unwrap(),
            Request::Score(CustomerId::new(9))
        );
        assert_eq!(
            Request::parse("FLUSH 2013-01-01").unwrap(),
            Request::Flush(Date::from_ymd(2013, 1, 1).unwrap())
        );
        assert_eq!(Request::parse("SNAPSHOT").unwrap(), Request::Snapshot);
        assert_eq!(Request::parse("STATS").unwrap(), Request::Stats);
        assert_eq!(Request::parse("SHUTDOWN").unwrap(), Request::Shutdown);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "NOPE",
            "INGEST",
            "INGEST x 2012-05-02 1",
            "INGEST 7 yesterday 1",
            "INGEST 7 2012-05-02 banana",
            "SCORE",
            "SCORE -3",
            "FLUSH",
            "FLUSH 2012-13-40",
            "PING extra",
            "SHUTDOWN now",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn trailing_field_errors_name_the_first_offender() {
        let err = Request::parse("PING extra stuff").unwrap_err();
        assert!(err.0.contains("\"extra\""), "{err}");
        let err = Request::parse("SCORE 9 10").unwrap_err();
        assert!(err.0.contains("\"10\""), "{err}");
    }

    #[test]
    fn parse_into_shares_one_arena_across_ops() {
        let mut arena = Vec::new();
        let a = Request::parse_into("INGEST 7 2012-05-02 3 1 3", &mut arena).unwrap();
        let b = Request::parse_into("INGEST 8 2012-05-03 9", &mut arena).unwrap();
        let c = Request::parse_into("SCORE 7", &mut arena).unwrap();
        let ParsedRequest::Ingest(ca, _, ra) = a else {
            panic!("not an ingest: {a:?}")
        };
        let ParsedRequest::Ingest(cb, _, rb) = b else {
            panic!("not an ingest: {b:?}")
        };
        assert_eq!(ca, CustomerId::new(7));
        assert_eq!(cb, CustomerId::new(8));
        // Wire order preserved, duplicates kept: the WAL line must be
        // byte-identical to what the client sent.
        assert_eq!(
            &arena[ra],
            &[ItemId::new(3), ItemId::new(1), ItemId::new(3)]
        );
        assert_eq!(&arena[rb], &[ItemId::new(9)]);
        assert_eq!(c, ParsedRequest::Score(CustomerId::new(7)));
        assert_eq!(arena.len(), 4);
    }

    #[test]
    fn parse_into_restores_the_arena_on_error() {
        let mut arena = vec![ItemId::new(42)];
        assert!(Request::parse_into("INGEST 7 2012-05-02 1 2 banana", &mut arena).is_err());
        assert_eq!(arena, vec![ItemId::new(42)]);
        assert!(Request::parse_into("INGEST x 2012-05-02 1", &mut arena).is_err());
        assert_eq!(arena, vec![ItemId::new(42)]);
    }

    #[test]
    fn batch_headers_parse_and_reject() {
        assert!(parse_batch_header("PING").is_none());
        assert!(parse_batch_header("INGEST 7 2012-05-02").is_none());
        assert!(parse_batch_header("").is_none());
        assert_eq!(parse_batch_header("BATCH 1").unwrap().unwrap(), 1);
        assert_eq!(parse_batch_header("BATCH 256").unwrap().unwrap(), 256);
        assert_eq!(
            parse_batch_header(&format!("BATCH {MAX_BATCH}"))
                .unwrap()
                .unwrap(),
            MAX_BATCH
        );
        for bad in [
            "BATCH",
            "BATCH 0",
            "BATCH -1",
            "BATCH x",
            "BATCH 2 extra",
            &format!("BATCH {}", MAX_BATCH + 1),
        ] {
            assert!(
                parse_batch_header(bad).unwrap().is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn packed_lines_and_vec_agree() {
        let buf = "PING__SCORE 7_";
        let bounds = [(0, 4), (6, 13), (13, 13)];
        let packed = PackedLines::new(buf, &bounds);
        let vec: Vec<String> = vec!["PING".into(), "SCORE 7".into(), String::new()];
        assert_eq!(BatchLines::len(&packed), BatchLines::len(&vec));
        for i in 0..BatchLines::len(&vec) {
            assert_eq!(packed.line(i), vec.line(i));
        }
        assert!(!packed.is_empty());
    }

    #[test]
    fn member_responses_split_multi_line_members() {
        let body = "PONG\nOK 2\nCLOSED a\nCLOSED b\nERR nope\n";
        let members: Vec<&str> = member_responses(body).collect();
        assert_eq!(
            members,
            vec!["PONG", "OK 2\nCLOSED a\nCLOSED b", "ERR nope"]
        );
        let joined: Vec<&str> = member_responses("OK 0\nOK 1\nCLOSED c").collect();
        assert_eq!(joined, vec!["OK 0", "OK 1\nCLOSED c"]);
        assert_eq!(member_responses("").count(), 0);
    }

    #[test]
    fn write_helpers_match_to_line() {
        let reqs = [
            Request::parse("INGEST 7 2012-05-02 5 3 5 1").unwrap(),
            Request::parse("INGEST 0 2012-05-02").unwrap(),
            Request::parse("FLUSH 2013-01-31").unwrap(),
        ];
        for req in &reqs {
            let mut out = String::from("prefix|");
            match req {
                Request::Ingest(c, d, items) => write_ingest_line(&mut out, *c, *d, items),
                Request::Flush(d) => write_flush_line(&mut out, *d),
                _ => unreachable!(),
            }
            assert_eq!(out, format!("prefix|{}", req.to_line()));
        }
    }

    #[test]
    fn verb_names_cover_all_requests() {
        let mut items = Vec::new();
        let mut verb = |line| Request::parse_into(line, &mut items).unwrap().verb();
        assert_eq!(verb("PING"), "ping");
        assert_eq!(verb("SNAPSHOT"), "snapshot");
        assert_eq!(verb("FLUSH 2013-01-01"), "flush");
    }

    #[test]
    fn score_lines_roundtrip_bit_identically() {
        // Produce a real closed window and check the wire value parses
        // back to the identical f64.
        let origin = Date::from_ymd(2012, 5, 1).unwrap();
        let mut m = attrition_core::StabilityMonitor::new(
            WindowSpec::months(origin, 1),
            StabilityParams::PAPER,
        );
        let c = CustomerId::new(3);
        m.ingest(c, origin, &Basket::from_raw(&[1, 2, 5]));
        m.ingest(c, origin.add_months(1), &Basket::from_raw(&[1]));
        let closed = m.ingest(c, origin.add_months(2), &Basket::from_raw(&[2]));
        assert!(!closed.is_empty());
        for w in &closed {
            let parsed = parse_score_line(&format_closed(w)).unwrap();
            assert_eq!(parsed.customer, w.customer.raw());
            assert_eq!(parsed.window, w.point.window.raw());
            assert_eq!(parsed.value.to_bits(), w.point.value.to_bits());
            assert_eq!(
                parsed.present.to_bits(),
                w.point.present_significance.to_bits()
            );
            assert_eq!(parsed.total.to_bits(), w.point.total_significance.to_bits());
        }
        let preview = m.preview(c).unwrap();
        let parsed = parse_score_line(&format_score(c, &preview)).unwrap();
        assert_eq!(parsed.value.to_bits(), preview.value.to_bits());
    }

    #[test]
    fn closed_line_lists_lost_items() {
        let origin = Date::from_ymd(2012, 5, 1).unwrap();
        let mut m = attrition_core::StabilityMonitor::new(
            WindowSpec::months(origin, 1),
            StabilityParams::PAPER,
        );
        let c = CustomerId::new(1);
        m.ingest(c, origin, &Basket::from_raw(&[4, 9]));
        let closed = m.ingest(c, origin.add_months(2), &Basket::from_raw(&[4]));
        // Second closed window (empty month) lost both items.
        let line = format_closed(&closed[1]);
        assert!(line.contains("4:"), "{line}");
        assert!(line.contains("9:"), "{line}");
    }
}
