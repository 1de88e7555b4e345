//! CSV import/export for receipts and taxonomies.
//!
//! Receipt schema (one row per receipt):
//! `customer,date,total_cents,items` where `items` is a space-separated
//! list of raw item ids — e.g. `42,2012-05-03,1250,3 17 99`.
//!
//! Taxonomy schema (one row per product):
//! `item,segment,item_name,segment_name,price_cents`.
//!
//! Both formats roundtrip exactly and are what the CLI's `generate`
//! subcommand writes and the other subcommands read.

use crate::{ReceiptStore, ReceiptStoreBuilder, StoreError};
use attrition_types::{Cents, CustomerId, Date, ItemId, Taxonomy, TaxonomyBuilder};
use attrition_util::csv::{document_lines, parse_record, CsvWriter};
use std::io::Write as _;

/// Header of the receipts CSV.
pub const RECEIPTS_HEADER: [&str; 4] = ["customer", "date", "total_cents", "items"];

/// Header of the taxonomy CSV.
pub const TAXONOMY_HEADER: [&str; 5] = [
    "item",
    "segment",
    "item_name",
    "segment_name",
    "price_cents",
];

/// Serialize a store to receipts CSV (with header).
///
/// Every field is numeric or a date, so nothing needs quoting and each
/// row is written straight into one buffer.
pub fn receipts_to_csv(store: &ReceiptStore) -> String {
    let mut out = Vec::with_capacity(28 * store.num_receipts() + 4 * store.num_item_occurrences());
    out.extend_from_slice(RECEIPTS_HEADER.join(",").as_bytes());
    out.push(b'\n');
    for r in store.receipts() {
        let _ = write!(out, "{},{},{},", r.customer.raw(), r.date, r.total.raw());
        for (i, item) in r.items.iter().enumerate() {
            if i > 0 {
                out.push(b' ');
            }
            push_decimal(&mut out, item.raw());
        }
        out.push(b'\n');
    }
    String::from_utf8(out).expect("receipts CSV is ASCII")
}

/// Append `value` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut value: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

fn csv_err(line: usize, message: impl Into<String>) -> StoreError {
    StoreError::Csv {
        line,
        message: message.into(),
    }
}

/// The customer, date and total fields of a receipt row.
fn parse_head(
    customer: &str,
    date: &str,
    total: &str,
    line: usize,
) -> Result<(CustomerId, Date, Cents), StoreError> {
    let customer: u64 = customer
        .parse()
        .map_err(|_| csv_err(line, "bad customer id"))?;
    let date = Date::parse_iso(date).map_err(|e| csv_err(line, e.to_string()))?;
    let total: i64 = total
        .parse()
        .map_err(|_| csv_err(line, "bad total_cents"))?;
    Ok((CustomerId::new(customer), date, Cents(total)))
}

/// Parse one row straight into `builder` from borrowed fields, reading
/// the items byte by byte. Returns `None`, possibly after pushing some
/// items, when the row needs [`parse_row_general`]: it holds a quote or a
/// field count other than 4, or its items hold a byte other than an ASCII
/// digit or space, or an id beyond `u32`.
fn parse_row_fast(
    record: &str,
    line: usize,
    builder: &mut ReceiptStoreBuilder,
) -> Option<Result<(), StoreError>> {
    let bytes = record.as_bytes();
    let mut commas = [0; 3];
    let mut found = 0;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => return None,
            b',' => {
                commas[found] = i;
                found += 1;
                if found == 3 {
                    break;
                }
            }
            _ => {}
        }
    }
    if found < 3 {
        return None;
    }
    let items = &bytes[commas[2] + 1..];
    let head = parse_head(
        &record[..commas[0]],
        &record[commas[0] + 1..commas[1]],
        &record[commas[1] + 1..commas[2]],
        line,
    );
    let (customer, date, total) = match head {
        Ok(head) => head,
        // The general parser counts fields and unquotes before it reads
        // any of them.
        Err(_) if items.iter().any(|&b| b == b',' || b == b'"') => return None,
        Err(err) => return Some(Err(err)),
    };
    for token in items.split(|&b| b == b' ') {
        if token.is_empty() {
            continue;
        }
        // A `u32` has at most 10 digits; a longer token, even a
        // zero-padded one, takes the general parser.
        if token.len() > 10 {
            return None;
        }
        let mut value = 0u64;
        for &b in token {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                return None;
            }
            value = value * 10 + u64::from(digit);
        }
        builder.push_item(ItemId::new(u32::try_from(value).ok()?));
    }
    builder.finish_row(customer, date, total);
    Some(Ok(()))
}

/// Parse one row with the general CSV reader: quoted fields, and any
/// whitespace between items.
fn parse_row_general(
    record: &str,
    line: usize,
    builder: &mut ReceiptStoreBuilder,
) -> Result<(), StoreError> {
    let fields = parse_record(record).ok_or_else(|| csv_err(line, "malformed record"))?;
    if fields.len() != 4 {
        return Err(csv_err(
            line,
            format!("expected 4 fields, got {}", fields.len()),
        ));
    }
    let (customer, date, total) = parse_head(&fields[0], &fields[1], &fields[2], line)?;
    for tok in fields[3].split_whitespace() {
        let raw: u32 = tok
            .parse()
            .map_err(|_| csv_err(line, format!("bad item id {tok:?}")))?;
        builder.push_item(ItemId::new(raw));
    }
    builder.finish_row(customer, date, total);
    Ok(())
}

/// Flush ingest telemetry once per parse (no per-row atomics).
fn record_ingest_metrics(bytes: usize, rows: u64, receipts: u64, quarantined: u64) {
    if !attrition_obs::enabled() {
        return;
    }
    let registry = attrition_obs::global();
    registry.counter("store.bytes_read").add(bytes as u64);
    registry.counter("store.rows_read").add(rows);
    registry.counter("store.receipts_loaded").add(receipts);
    registry.counter("store.rows_quarantined").add(quarantined);
}

fn parse_receipts(text: &str, lenient: bool) -> Result<(ReceiptStore, u64), StoreError> {
    let mut builder = ReceiptStoreBuilder::new();
    let mut rows = 0u64;
    let mut quarantined = 0u64;
    for (idx, (line, record)) in document_lines(text).enumerate() {
        if idx == 0 && parse_record(record).is_some_and(|f| f[0] == RECEIPTS_HEADER[0]) {
            continue;
        }
        rows += 1;
        let parsed = parse_row_fast(record, line, &mut builder).unwrap_or_else(|| {
            builder.discard_row();
            parse_row_general(record, line, &mut builder)
        });
        if let Err(err) = parsed {
            if !lenient {
                return Err(err);
            }
            builder.discard_row();
            quarantined += 1;
        }
    }
    record_ingest_metrics(text.len(), rows, rows - quarantined, quarantined);
    Ok((builder.build(), quarantined))
}

/// Parse receipts CSV (tolerates a missing header) into a store. Any
/// malformed row aborts the parse with a [`StoreError::Csv`].
pub fn receipts_from_csv(text: &str) -> Result<ReceiptStore, StoreError> {
    parse_receipts(text, false).map(|(store, _)| store)
}

/// Parse receipts CSV, quarantining malformed rows instead of failing:
/// bad rows are skipped and counted (returned, and recorded under the
/// `store.rows_quarantined` metric) while every well-formed row loads.
pub fn receipts_from_csv_lenient(text: &str) -> (ReceiptStore, u64) {
    parse_receipts(text, true).expect("lenient parse cannot fail")
}

/// Serialize a taxonomy to CSV (with header).
pub fn taxonomy_to_csv(taxonomy: &Taxonomy) -> String {
    let mut w = CsvWriter::new();
    w.record(&TAXONOMY_HEADER);
    for p in taxonomy.products() {
        let seg_name = taxonomy
            .segment(p.segment)
            .map(|s| s.name.clone())
            .unwrap_or_default();
        w.record(&[
            &p.item.raw().to_string(),
            &p.segment.raw().to_string(),
            &p.name,
            &seg_name,
            &p.price.raw().to_string(),
        ]);
    }
    w.finish()
}

/// Parse taxonomy CSV back into a [`Taxonomy`].
///
/// Requires products to appear with dense, ascending item ids and dense
/// segment ids (which is what [`taxonomy_to_csv`] produces).
pub fn taxonomy_from_csv(text: &str) -> Result<Taxonomy, StoreError> {
    let mut builder = TaxonomyBuilder::new();
    let mut next_segment: u32 = 0;
    let mut next_item: u32 = 0;
    for (idx, (line, record)) in document_lines(text).enumerate() {
        let fields = parse_record(record).ok_or_else(|| csv_err(line, "malformed record"))?;
        if idx == 0 && fields[0] == TAXONOMY_HEADER[0] {
            continue;
        }
        if fields.len() != 5 {
            return Err(csv_err(
                line,
                format!("expected 5 fields, got {}", fields.len()),
            ));
        }
        let item: u32 = fields[0]
            .parse()
            .map_err(|_| csv_err(line, "bad item id"))?;
        let segment: u32 = fields[1]
            .parse()
            .map_err(|_| csv_err(line, "bad segment id"))?;
        let price: i64 = fields[4]
            .parse()
            .map_err(|_| csv_err(line, "bad price_cents"))?;
        if item != next_item {
            return Err(csv_err(
                line,
                format!("expected dense item id {next_item}, got {item}"),
            ));
        }
        next_item += 1;
        // Register segments as their ids first appear; ids must be dense.
        while next_segment <= segment {
            builder.add_segment(fields[3].clone());
            next_segment += 1;
        }
        builder
            .add_product(
                attrition_types::SegmentId::new(segment),
                fields[2].clone(),
                Cents(price),
            )
            .map_err(|e| csv_err(line, e.to_string()))?;
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_types::{Basket, Receipt, TaxonomyBuilder};

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::from_ymd(y, m, day).unwrap()
    }

    fn sample_store() -> ReceiptStore {
        let mut b = ReceiptStoreBuilder::new();
        b.push(Receipt::new(
            CustomerId::new(7),
            d(2012, 5, 3),
            Basket::from_raw(&[3, 17]),
            Cents(1250),
        ));
        b.push(Receipt::new(
            CustomerId::new(7),
            d(2012, 5, 10),
            Basket::from_raw(&[]),
            Cents(0),
        ));
        b.build()
    }

    #[test]
    fn receipts_roundtrip() {
        let store = sample_store();
        let csv = receipts_to_csv(&store);
        assert!(csv.starts_with("customer,date,total_cents,items\n"));
        let back = receipts_from_csv(&csv).unwrap();
        assert_eq!(back.num_receipts(), 2);
        let r = back.receipt(0).unwrap();
        assert_eq!(r.customer, CustomerId::new(7));
        assert_eq!(r.date, d(2012, 5, 3));
        assert_eq!(r.total, Cents(1250));
        assert_eq!(r.items, &[ItemId::new(3), ItemId::new(17)]);
        // Empty basket row survives.
        assert_eq!(back.receipt(1).unwrap().items.len(), 0);
    }

    #[test]
    fn receipts_without_header_accepted() {
        let back = receipts_from_csv("5,2013-01-02,99,1 2\n").unwrap();
        assert_eq!(back.num_receipts(), 1);
    }

    #[test]
    fn receipts_bad_rows_rejected() {
        assert!(receipts_from_csv("a,2013-01-02,99,1\n").is_err());
        assert!(receipts_from_csv("5,2013-13-02,99,1\n").is_err());
        assert!(receipts_from_csv("5,2013-01-02,x,1\n").is_err());
        assert!(receipts_from_csv("5,2013-01-02,99,zap\n").is_err());
        assert!(receipts_from_csv("5,2013-01-02,99\n").is_err());
    }

    /// Held by every test that quarantines rows, since
    /// `lenient_parse_records_metrics_when_enabled` counts quarantined rows
    /// process-wide.
    static QUARANTINE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn lenient_parse_quarantines_bad_rows() {
        let _serial = QUARANTINE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let csv = "customer,date,total_cents,items\n\
                   5,2013-01-02,99,1 2\n\
                   x,2013-01-02,99,1\n\
                   6,2013-01-03,50,\n\
                   7,2013-13-09,10,3\n";
        let (store, quarantined) = receipts_from_csv_lenient(csv);
        assert_eq!(store.num_receipts(), 2);
        assert_eq!(quarantined, 2);
    }

    #[test]
    fn lenient_parse_records_metrics_when_enabled() {
        let _serial = QUARANTINE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let csv = "5,2013-01-02,99,1 2\nbad row\n";
        attrition_obs::set_enabled(true);
        attrition_obs::global().reset();
        let (store, quarantined) = receipts_from_csv_lenient(csv);
        let snap = attrition_obs::global().snapshot();
        attrition_obs::set_enabled(false);
        attrition_obs::global().reset();
        assert_eq!(store.num_receipts(), 1);
        assert_eq!(quarantined, 1);
        // Other tests in this process may parse concurrently while the
        // flag is up, so assert lower bounds except for quarantining,
        // which no other test does while this one holds `QUARANTINE`.
        assert_eq!(snap.counter("store.rows_quarantined"), Some(1));
        assert!(snap.counter("store.rows_read").unwrap_or(0) >= 2);
        assert!(snap.counter("store.receipts_loaded").unwrap_or(0) >= 1);
        assert!(snap.counter("store.bytes_read").unwrap_or(0) >= csv.len() as u64);
    }

    #[test]
    fn csv_error_reports_line() {
        let err = receipts_from_csv("customer,date,total_cents,items\n5,bad,9,1\n").unwrap_err();
        match err {
            StoreError::Csv { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    fn error_line(err: StoreError) -> usize {
        match err {
            StoreError::Csv { line, .. } => line,
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn csv_error_line_counts_blank_lines() {
        let lf = "customer,date,total_cents,items\n\n5,2013-01-02,99,1\n\n6,bad,9,1\n";
        assert_eq!(error_line(receipts_from_csv(lf).unwrap_err()), 5);
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(error_line(receipts_from_csv(&crlf).unwrap_err()), 5);
        let taxonomy = "item,segment,item_name,segment_name,price_cents\r\n\r\nx,0,p,s,10\r\n";
        assert_eq!(error_line(taxonomy_from_csv(taxonomy).unwrap_err()), 3);
        // A header after leading blank lines is still the first record.
        let store =
            receipts_from_csv("\n\ncustomer,date,total_cents,items\r\n5,2013-01-02,99,1\r\n");
        assert_eq!(store.unwrap().num_receipts(), 1);
    }

    #[test]
    fn receipts_csv_is_pinned() {
        let mut b = ReceiptStoreBuilder::new();
        b.push_row(
            CustomerId::new(u64::MAX),
            d(1969, 12, 31),
            Cents(-42),
            &[ItemId::new(u32::MAX), ItemId::new(0)],
        );
        b.push_row(CustomerId::new(7), d(2012, 5, 10), Cents(0), &[]);
        b.push_row(
            CustomerId::new(7),
            d(2012, 5, 3),
            Cents(1250),
            &[ItemId::new(17), ItemId::new(3), ItemId::new(17)],
        );
        assert_eq!(
            receipts_to_csv(&b.build()),
            "customer,date,total_cents,items\n\
             7,2012-05-03,1250,3 17\n\
             7,2012-05-10,0,\n\
             18446744073709551615,1969-12-31,-42,0 4294967295\n"
        );
    }

    fn sample_taxonomy() -> Taxonomy {
        let mut t = TaxonomyBuilder::new();
        let coffee = t.add_segment("coffee");
        let milk = t.add_segment("milk");
        t.add_product(coffee, "arabica, ground", Cents(400))
            .unwrap();
        t.add_product(milk, "whole 1L", Cents(120)).unwrap();
        t.build()
    }

    #[test]
    fn taxonomy_roundtrip() {
        let tax = sample_taxonomy();
        let csv = taxonomy_to_csv(&tax);
        let back = taxonomy_from_csv(&csv).unwrap();
        assert_eq!(back.num_products(), 2);
        assert_eq!(back.num_segments(), 2);
        // The quoted comma in the product name survives.
        assert_eq!(
            back.product(ItemId::new(0)).unwrap().name,
            "arabica, ground"
        );
        assert_eq!(back.price_of(ItemId::new(1)).unwrap(), Cents(120));
        assert_eq!(
            back.segment(attrition_types::SegmentId::new(1))
                .unwrap()
                .name,
            "milk"
        );
    }

    #[test]
    fn taxonomy_non_dense_rejected() {
        let csv = "item,segment,item_name,segment_name,price_cents\n5,0,p,s,10\n";
        assert!(taxonomy_from_csv(csv).is_err());
    }
}
