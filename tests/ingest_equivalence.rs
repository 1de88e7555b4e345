//! Receipt ingest and windowing against reference implementations.
//!
//! The store builds its columns straight from borrowed CSV fields, skips
//! the sort for in-order rows, and windows receipts with cached bounds and
//! merged item sets. Each reference below does the same job the plain way
//! — `parse_record` + `str::parse` per field, one owned `Basket` per
//! receipt, a stable sort of owned receipts, `window_of` per receipt and
//! concatenate-sort-dedup per window — and both must agree on random
//! inputs, errors included.

use attrition::prelude::*;
use attrition::store::csv_io::{receipts_from_csv, receipts_from_csv_lenient, receipts_to_csv};
use attrition::store::{
    project_to_segments, store_from_bytes, store_to_bytes, CustomerWindows, ReceiptRef, StoreError,
};
use attrition::types::{TaxonomyBuilder, TypeError};
use attrition::util::check::forall;
use attrition::util::csv::{parse_record, CsvWriter};
use attrition::util::Rng;

/// One stored receipt, owned: `(customer, date, total, items)`.
type Row = (u64, Date, i64, Vec<u32>);

fn rows_of(store: &ReceiptStore) -> Vec<Row> {
    store
        .receipts()
        .map(|r| {
            let items = r.items.iter().map(|i| i.raw()).collect();
            (r.customer.raw(), r.date, r.total.raw(), items)
        })
        .collect()
}

fn rows_of_receipts(receipts: &[Receipt]) -> Vec<Row> {
    receipts
        .iter()
        .map(|r| {
            let items = r.basket.iter().map(|i| i.raw()).collect();
            (r.customer.raw(), r.date, r.total.raw(), items)
        })
        .collect()
}

/// The rows plus the customer index: what two equal stores share.
fn assert_same_store(got: &ReceiptStore, want: &[Receipt]) {
    assert_eq!(rows_of(got), rows_of_receipts(want));
    let mut customers: Vec<CustomerId> = want.iter().map(|r| r.customer).collect();
    customers.dedup();
    assert_eq!(got.customers().collect::<Vec<_>>(), customers);
    for &c in &customers {
        let rows = got.customer_rows(c).unwrap();
        assert!(rows.clone().all(|row| want[row].customer == c));
        assert_eq!(rows.len(), want.iter().filter(|r| r.customer == c).count());
    }
}

/// The stable `(customer, date)` sort the store promises.
fn sorted(mut receipts: Vec<Receipt>) -> Vec<Receipt> {
    receipts.sort_by(|a, b| a.customer.cmp(&b.customer).then(a.date.cmp(&b.date)));
    receipts
}

fn csv_err(line: usize, message: impl Into<String>) -> String {
    StoreError::Csv {
        line,
        message: message.into(),
    }
    .to_string()
}

/// `YYYY-MM-DD` split on dashes and parsed field by field.
fn reference_date(s: &str) -> Result<Date, TypeError> {
    let err = || TypeError::InvalidDate(s.to_owned());
    let mut parts = s.splitn(3, '-');
    let y: i32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let m: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let d: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    Date::from_ymd(y, m, d).map_err(|_| err())
}

fn reference_row(fields: &[String], line: usize) -> Result<Receipt, String> {
    if fields.len() != 4 {
        return Err(csv_err(
            line,
            format!("expected 4 fields, got {}", fields.len()),
        ));
    }
    let customer: u64 = fields[0]
        .parse()
        .map_err(|_| csv_err(line, "bad customer id"))?;
    let date = reference_date(&fields[1]).map_err(|e| csv_err(line, e.to_string()))?;
    let total: i64 = fields[2]
        .parse()
        .map_err(|_| csv_err(line, "bad total_cents"))?;
    let mut items = Vec::new();
    for tok in fields[3].split_whitespace() {
        let raw: u32 = tok
            .parse()
            .map_err(|_| csv_err(line, format!("bad item id {tok:?}")))?;
        items.push(ItemId::new(raw));
    }
    Ok(Receipt::new(
        CustomerId::new(customer),
        date,
        Basket::new(items),
        Cents(total),
    ))
}

/// Receipts CSV the plain way: every record through `parse_record`,
/// errors at the physical line, the first non-empty record a header when
/// its first field is `customer`. Returns the sorted receipts and the
/// quarantine count, or the error text.
fn reference_parse(text: &str, lenient: bool) -> Result<(Vec<Receipt>, u64), String> {
    let mut receipts = Vec::new();
    let mut quarantined = 0;
    let mut first = true;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let record = raw.strip_suffix('\r').unwrap_or(raw);
        if record.is_empty() {
            continue;
        }
        let parsed = parse_record(record)
            .ok_or_else(|| csv_err(line, "malformed record"))
            .and_then(|fields| {
                if first && fields[0] == "customer" {
                    Ok(None)
                } else {
                    reference_row(&fields, line).map(Some)
                }
            });
        first = false;
        match parsed {
            Ok(None) => {}
            Ok(Some(receipt)) => receipts.push(receipt),
            Err(_) if lenient => quarantined += 1,
            Err(err) => return Err(err),
        }
    }
    Ok((sorted(receipts), quarantined))
}

/// One item token: plain digits, a form only the general parser reads
/// (`+7`, `007`, eleven or more digits), or with probability `faults` a
/// form nothing accepts.
fn item_token(rng: &mut Rng, faults: f64) -> String {
    let id = match rng.u64_below(10) {
        0 => rng.u64_below(1 << 32),
        1 => u64::from(u32::MAX) - rng.u64_below(3),
        _ => rng.u64_below(12),
    };
    if rng.bernoulli(faults) {
        return match rng.u64_below(6) {
            0 => format!("{}", u64::from(u32::MAX) + 1 + rng.u64_below(10)),
            1 => "99999999999".to_owned(),
            // Wraps to 1 in a 64-bit accumulator.
            2 => "18446744073709551617".to_owned(),
            3 => format!("x{id}"),
            4 => format!("{id}.0"),
            _ => "-1".to_owned(),
        };
    }
    match rng.u64_below(20) {
        0 => format!("+{id}"),
        1 => format!("00{id}"),
        2 => format!("0000000000{id}"),
        _ => id.to_string(),
    }
}

fn item_separator(rng: &mut Rng) -> &'static str {
    match rng.u64_below(30) {
        0 => "\t",
        1 => "\u{a0}",
        2 => "\u{3000}",
        3 => "  ",
        _ => " ",
    }
}

fn date_field(rng: &mut Rng, faults: f64) -> String {
    let d0 = Date::from_ymd(2012, 5, 1).unwrap();
    let date = d0 + rng.u64_below(25) as i32;
    let (y, m, d) = date.ymd();
    if rng.bernoulli(faults) {
        return match rng.u64_below(4) {
            0 => "2013-02-30".to_owned(),
            1 => "2013-13-01".to_owned(),
            2 => "bad".to_owned(),
            _ => format!("{date}x"),
        };
    }
    match rng.u64_below(20) {
        0 => format!("{y}-{m}-{d}"),
        1 => format!("+{y}-{m:02}-{d:02}"),
        _ => date.to_string(),
    }
}

/// One receipt row, sometimes with quoted fields; with probability
/// `faults` per field, a bad value, a wrong field count or a broken quote.
fn row_line(rng: &mut Rng, faults: f64) -> String {
    let customer = if rng.bernoulli(faults) {
        ["-1", "x"][rng.usize_below(2)].to_owned()
    } else if rng.u64_below(30) == 0 {
        u64::MAX.to_string()
    } else {
        rng.u64_below(4).to_string()
    };
    let total = if rng.bernoulli(faults) {
        ["1.5", ""][rng.usize_below(2)].to_owned()
    } else {
        rng.i64_in(-500, 5000).to_string()
    };
    let mut items = String::new();
    let n_items = rng.u64_below(7);
    if rng.u64_below(10) == 0 {
        items.push_str(item_separator(rng));
    }
    for i in 0..n_items {
        if i > 0 {
            items.push_str(item_separator(rng));
        }
        items.push_str(&item_token(rng, faults));
    }
    if rng.u64_below(10) == 0 {
        items.push(' ');
    }
    let mut fields = vec![customer, date_field(rng, faults), total, items];
    if rng.bernoulli(faults) {
        match rng.u64_below(4) {
            0 => drop(fields.pop()),
            1 => fields.push("9".to_owned()),
            2 => fields[3] = format!("\"{}", fields[3]),
            _ => fields[3].push_str(" \"\"7"),
        }
    } else {
        match rng.u64_below(15) {
            0 => fields[3] = format!("\"{}\"", fields[3]),
            1 => fields[0] = format!("\"{}\"", fields[0]),
            _ => {}
        }
    }
    fields.join(",")
}

/// A receipts document: shuffled rows (a third of the documents without
/// any fault), optional header, LF or CRLF endings, blank lines, with or
/// without a final newline.
fn document(rng: &mut Rng) -> String {
    let faults = [0.0, 0.01, 0.08][rng.usize_below(3)];
    let mut lines: Vec<String> = (0..rng.u64_below(30))
        .map(|_| row_line(rng, faults))
        .collect();
    rng.shuffle(&mut lines);
    if rng.bernoulli(0.5) {
        lines.insert(0, "customer,date,total_cents,items".to_owned());
    }
    let crlf = rng.bernoulli(0.3);
    let mut text = String::new();
    for line in lines {
        while rng.u64_below(6) == 0 {
            text.push_str(if rng.bernoulli(0.5) { "\r\n" } else { "\n" });
        }
        text.push_str(&line);
        text.push_str(if crlf { "\r\n" } else { "\n" });
    }
    if rng.bernoulli(0.2) {
        text.pop();
    }
    text
}

#[test]
fn receipts_csv_matches_reference_parser() {
    let (mut loaded, mut rejected, mut rows, mut quarantined_rows) = (0, 0, 0, 0);
    forall(512, document, |text| {
        match (receipts_from_csv(text), reference_parse(text, false)) {
            (Ok(store), Ok((want, _))) => {
                assert_same_store(&store, &want);
                loaded += 1;
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want);
                rejected += 1;
            }
            (got, want) => panic!("store {:?} vs reference {want:?}", got.map(|s| rows_of(&s))),
        }
        let (store, quarantined) = receipts_from_csv_lenient(text);
        let (want, want_quarantined) = reference_parse(text, true).expect("lenient never fails");
        assert_same_store(&store, &want);
        assert_eq!(quarantined, want_quarantined);
        rows += store.num_receipts();
        quarantined_rows += quarantined;
    });
    // Neither outcome is vacuous.
    assert!(
        loaded > 100 && rejected > 100,
        "{loaded} loaded, {rejected} rejected"
    );
    assert!(
        quarantined_rows > 100 && rows > 1000,
        "{rows} rows, {quarantined_rows} quarantined"
    );
}

#[test]
fn rejected_row_leaves_no_items_behind() {
    // Each rejected row fails partway through its items and is followed
    // by a row the byte parser reads.
    let text = "1,2012-05-01,10,4 5 x 6\n\
                1,2012-05-02,10,9\n\
                1,2012-05-03,10,7 8 99999999999\n\
                1,2012-05-04,10,\n\
                1,2012-05-05,10,1\t2 3\n";
    let (store, quarantined) = receipts_from_csv_lenient(text);
    assert_eq!(quarantined, 2);
    let items: Vec<Vec<u32>> = rows_of(&store).into_iter().map(|row| row.3).collect();
    assert_eq!(items, vec![vec![9], vec![], vec![1, 2, 3]]);
}

/// Receipts of customers `0..customers` in random order, with ties on
/// `(customer, date)` and empty baskets.
fn random_receipts(rng: &mut Rng, customers: u64, max_item: u64) -> Vec<Receipt> {
    let d0 = Date::from_ymd(2012, 3, 1).unwrap();
    (0..rng.u64_below(60))
        .map(|_| {
            let items: Vec<u32> = (0..rng.u64_below(8))
                .map(|_| rng.u64_below(max_item) as u32)
                .collect();
            Receipt::new(
                CustomerId::new(rng.u64_below(customers)),
                d0 + rng.u64_below(400) as i32,
                Basket::from_raw(&items),
                Cents(rng.i64_in(-100, 10_000)),
            )
        })
        .collect()
}

fn build(receipts: &[Receipt]) -> ReceiptStore {
    let mut builder = ReceiptStoreBuilder::new();
    for r in receipts {
        builder.push(r.clone());
    }
    builder.build()
}

#[test]
fn builder_matches_stable_sort_of_owned_receipts() {
    forall(
        256,
        |rng| random_receipts(rng, 5, 40),
        |receipts| {
            let want = sorted(receipts.clone());
            assert_same_store(&build(receipts), &want);
            // In-order input takes the no-sort path to the same store.
            assert_same_store(&build(&want), &want);
            // Items reversed and doubled: sorted and deduplicated in place.
            let mut builder = ReceiptStoreBuilder::new();
            for r in receipts {
                let mut items: Vec<ItemId> = r.basket.items().iter().rev().copied().collect();
                items.extend_from_slice(r.basket.items());
                builder.push_row(r.customer, r.date, r.total, &items);
            }
            assert_same_store(&builder.build(), &want);
        },
    );
}

/// The general writer: one `String` per field, quoted by `write_record`.
fn reference_csv(store: &ReceiptStore) -> String {
    let mut w = CsvWriter::new();
    w.record(&["customer", "date", "total_cents", "items"]);
    for r in store.receipts() {
        let items: Vec<String> = r.items.iter().map(|i| i.raw().to_string()).collect();
        w.record(&[
            &r.customer.raw().to_string(),
            &r.date.to_string(),
            &r.total.raw().to_string(),
            &items.join(" "),
        ]);
    }
    w.finish()
}

#[test]
fn csv_writer_matches_reference_and_round_trips() {
    forall(
        256,
        |rng| random_receipts(rng, 1 << 40, 1 << 32),
        |receipts| {
            let store = build(receipts);
            let text = receipts_to_csv(&store);
            assert_eq!(text, reference_csv(&store));
            assert_same_store(
                &receipts_from_csv(&text).unwrap(),
                &sorted(receipts.clone()),
            );
        },
    );
}

#[test]
fn binary_round_trip_matches_reference() {
    forall(
        256,
        |rng| random_receipts(rng, 6, 1 << 32),
        |receipts| {
            let back = store_from_bytes(&store_to_bytes(&build(receipts))).unwrap();
            assert_same_store(&back, &sorted(receipts.clone()));
        },
    );
}

/// A taxonomy of `products` products over `segments` segments, assigned
/// at random so that a basket's segments are unsorted.
fn random_taxonomy(rng: &mut Rng, products: u64, segments: u64) -> Taxonomy {
    let mut t = TaxonomyBuilder::new();
    let ids: Vec<SegmentId> = (0..segments)
        .map(|s| t.add_segment(format!("s{s}")))
        .collect();
    for p in 0..products {
        let segment = ids[rng.u64_below(segments) as usize];
        t.add_product(segment, format!("p{p}"), Cents(1)).unwrap();
    }
    t.build()
}

#[test]
fn projection_matches_reference() {
    forall(
        256,
        |rng| {
            let segments = 1 + rng.u64_below(8);
            let taxonomy = random_taxonomy(rng, 30, segments);
            // Item ids up to 31 sometimes reach past the 30 products.
            (random_receipts(rng, 5, 32), taxonomy)
        },
        |(receipts, taxonomy)| {
            let store = build(receipts);
            let want: Result<Vec<Receipt>, String> = store
                .receipts()
                .map(|r| {
                    let segments = r
                        .items
                        .iter()
                        .map(|&i| taxonomy.segment_of(i).map(|s| ItemId::new(s.raw())))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| StoreError::Type(e).to_string())?;
                    Ok(Receipt::new(
                        r.customer,
                        r.date,
                        Basket::new(segments),
                        r.total,
                    ))
                })
                .collect();
            match (project_to_segments(&store, taxonomy), want) {
                (Ok(got), Ok(want)) => assert_same_store(&got, &sorted(want)),
                (Err(got), Err(want)) => assert_eq!(got.to_string(), want),
                (got, want) => panic!("store {:?} vs reference {want:?}", got.map(|s| rows_of(&s))),
            }
        },
    );
}

/// `D_i^w` the plain way: `window_of` for every receipt, then each
/// window's items concatenated and made a `Basket`.
fn reference_windows(
    customer: CustomerId,
    receipts: &[ReceiptRef<'_>],
    spec: WindowSpec,
    n_windows: u32,
) -> CustomerWindows {
    let n = n_windows as usize;
    let mut items: Vec<Vec<ItemId>> = vec![Vec::new(); n];
    let mut trips = vec![0u32; n];
    let mut spend = vec![Cents::ZERO; n];
    let mut last: Vec<Option<Date>> = vec![None; n];
    for r in receipts {
        let Some(k) = spec.window_of(r.date).map(|k| k.index()) else {
            continue;
        };
        if k >= n {
            continue;
        }
        items[k].extend_from_slice(r.items);
        trips[k] += 1;
        spend[k] += r.total;
        last[k] = Some(last[k].map_or(r.date, |d| d.max(r.date)));
    }
    let mut last_purchase = Vec::with_capacity(n);
    let mut running: Option<Date> = None;
    for d in last {
        running = running.max(d);
        last_purchase.push(running);
    }
    CustomerWindows {
        customer,
        baskets: items.into_iter().map(Basket::new).collect(),
        trips,
        spend,
        last_purchase,
        spec,
    }
}

fn reference_database(
    store: &ReceiptStore,
    spec: WindowSpec,
    n_windows: u32,
    alignment: WindowAlignment,
) -> Vec<CustomerWindows> {
    let horizon_end = spec.window_end(n_windows.saturating_sub(1));
    store
        .customers()
        .map(|c| {
            let receipts: Vec<ReceiptRef<'_>> = store.customer_receipts(c).unwrap().collect();
            match alignment {
                WindowAlignment::Global => reference_windows(c, &receipts, spec, n_windows),
                WindowAlignment::PerCustomerFirstPurchase => match receipts.first() {
                    Some(first) if first.date < horizon_end => {
                        let own = WindowSpec {
                            origin: first.date.max(spec.origin),
                            length: spec.length,
                        };
                        let n = own.windows_covering(horizon_end + -1);
                        reference_windows(c, &receipts, own, n)
                    }
                    _ => reference_windows(c, &receipts, spec, 0),
                },
            }
        })
        .collect()
}

#[derive(Debug)]
struct WindowCase {
    receipts: Vec<Receipt>,
    spec: WindowSpec,
    n_windows: u32,
}

fn window_case(rng: &mut Rng) -> WindowCase {
    // Origins fall on any day of a month (off the 1st, `window_of`
    // corrects its month quotient), and receipts start 60 days before the
    // origin and run past the horizon.
    let month = Date::from_ymd(2012, 1 + rng.u64_below(12) as u32, 1).unwrap();
    let origin = month + rng.u64_below(31) as i32;
    let spec = if rng.bernoulli(0.5) {
        WindowSpec::months(origin, 1 + rng.u64_below(3) as u32)
    } else {
        WindowSpec::days(origin, 1 + rng.u64_below(40) as u32)
    };
    let d0 = origin + -60;
    let receipts = (0..rng.u64_below(80))
        .map(|_| {
            let items: Vec<u32> = (0..rng.u64_below(6))
                .map(|_| match rng.u64_below(4) {
                    0 => u32::MAX - rng.u64_below(4) as u32,
                    _ => rng.u64_below(20) as u32,
                })
                .collect();
            Receipt::new(
                CustomerId::new(rng.u64_below(6)),
                d0 + rng.u64_below(500) as i32,
                Basket::from_raw(&items),
                Cents(rng.i64_in(0, 3000)),
            )
        })
        .collect();
    WindowCase {
        receipts,
        spec,
        n_windows: rng.u64_below(10) as u32,
    }
}

#[test]
fn windowing_matches_reference() {
    forall(384, window_case, |case| {
        let store = build(&case.receipts);
        for alignment in [
            WindowAlignment::Global,
            WindowAlignment::PerCustomerFirstPurchase,
        ] {
            let db = WindowedDatabase::from_store(&store, case.spec, case.n_windows, alignment);
            let want = reference_database(&store, case.spec, case.n_windows, alignment);
            assert_eq!(db.customers(), &want[..], "{alignment:?}");
        }
    });
}
