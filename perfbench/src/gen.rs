//! Input generation. Every input is a pure function of the seed and the
//! workload size, and every expected reply comes from an in-process
//! [`StabilityMonitor`] fold of the same stream, so the server's output
//! can be checked byte for byte.

use crate::util::Mix;
use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_datagen::{generate, GeneratedDataset, ScenarioConfig};
use attrition_serve::protocol::{format_closed_into, format_score_into};
use attrition_store::{ReceiptStore, ReceiptStoreBuilder, WindowSpec};
use attrition_types::{Basket, Cents, CustomerId, Date, ItemId, Receipt};
use std::fmt::Write as _;

/// Window length of the paper-preset workloads (the paper's 2 months).
pub const WINDOW_MONTHS: u32 = 2;
/// Lost products per explanation (the server's default).
pub const MAX_EXPLANATIONS: usize = 5;
/// One `SCORE` read after this many `INGEST`s, on the same connection.
pub const SCORE_EVERY: usize = 4;

/// The significance parameters every workload scores with (the
/// server's default `--alpha 2`).
pub fn params() -> StabilityParams {
    StabilityParams::new(2.0).expect("alpha 2 is valid")
}

pub fn origin() -> Date {
    Date::from_ymd(2012, 5, 1).expect("valid date")
}

/// What a request does; decides reply framing and the layer it hits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verb {
    Ingest,
    Score,
    Flush,
}

/// One request line with the connection it belongs to (customers are
/// pinned to a connection so per-customer order survives two
/// connections; a `FLUSH` is a barrier across all of them).
pub struct Req {
    pub line: String,
    pub verb: Verb,
    pub conn: usize,
}

/// A request stream with the reply each request must get.
#[derive(Default)]
pub struct Stream {
    pub reqs: Vec<Req>,
    pub expect: Vec<String>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    pub fn ingests(&self) -> usize {
        self.reqs.iter().filter(|r| r.verb == Verb::Ingest).count()
    }
}

/// A receipt as the wire carries it.
pub struct WireReceipt {
    pub customer: u64,
    pub date: Date,
    pub items: Vec<u32>,
}

/// Render a closed-window reply exactly as the server does.
pub fn render_closed(out: &mut String, closed: &[attrition_core::WindowClosed]) {
    let _ = write!(out, "OK {}", closed.len());
    for window in closed {
        out.push('\n');
        format_closed_into(out, window);
    }
}

/// Render a `SCORE` reply exactly as the server does.
pub fn render_score(out: &mut String, monitor: &StabilityMonitor, customer: u64) {
    match monitor.preview(CustomerId::new(customer)) {
        Some(point) => format_score_into(out, CustomerId::new(customer), &point),
        None => {
            let _ = write!(out, "ERR unknown customer {customer}");
        }
    }
}

/// Turn receipts (in date order) into a request stream, folding every
/// request into `reference` to record its expected reply. A `FLUSH` of
/// the new month goes out at each month boundary when `flush_months`;
/// every [`SCORE_EVERY`]th `INGEST` is followed by a `SCORE` of the same
/// customer. Stops at `cap` requests.
pub fn build_stream(
    receipts: &[WireReceipt],
    flush_months: bool,
    conns: usize,
    cap: usize,
    reference: &mut StabilityMonitor,
) -> Stream {
    let mut s = Stream::default();
    let mut month: Option<Date> = None;
    let mut ingests = 0usize;
    for r in receipts {
        if s.len() >= cap {
            break;
        }
        let m = r.date.first_of_month();
        if flush_months && month.is_some_and(|prev| m > prev) {
            let mut expect = String::new();
            render_closed(&mut expect, &reference.flush_until(m));
            s.reqs.push(Req {
                line: format!("FLUSH {m}"),
                verb: Verb::Flush,
                conn: 0,
            });
            s.expect.push(expect);
        }
        month = Some(m);
        let conn = (r.customer % conns as u64) as usize;
        let mut line = format!("INGEST {} {}", r.customer, r.date);
        for item in &r.items {
            let _ = write!(line, " {item}");
        }
        let basket = Basket::new(r.items.iter().map(|&i| ItemId::new(i)).collect());
        let mut expect = String::new();
        render_closed(
            &mut expect,
            &reference.ingest(CustomerId::new(r.customer), r.date, &basket),
        );
        s.reqs.push(Req {
            line,
            verb: Verb::Ingest,
            conn,
        });
        s.expect.push(expect);
        ingests += 1;
        if ingests.is_multiple_of(SCORE_EVERY) {
            let mut expect = String::new();
            render_score(&mut expect, reference, r.customer);
            s.reqs.push(Req {
                line: format!("SCORE {}", r.customer),
                verb: Verb::Score,
                conn,
            });
            s.expect.push(expect);
        }
    }
    s
}

/// `SCORE` reads of `customers`, each on the connection that owns it.
pub fn score_stream(customers: &[u64], conns: usize, reference: &StabilityMonitor) -> Stream {
    let mut s = Stream::default();
    for &c in customers {
        let mut expect = String::new();
        render_score(&mut expect, reference, c);
        s.reqs.push(Req {
            line: format!("SCORE {c}"),
            verb: Verb::Score,
            conn: (c % conns as u64) as usize,
        });
        s.expect.push(expect);
    }
    s
}

/// The paper preset (28 months from May 2012, defection onset at month
/// 18) with `customers` customers split evenly between the cohorts.
pub fn paper_dataset(seed: u64, customers: usize) -> GeneratedDataset {
    let mut cfg = ScenarioConfig::paper_default();
    cfg.seed = seed;
    cfg.n_loyal = customers / 2;
    cfg.n_defectors = customers - customers / 2;
    generate(&cfg)
}

/// Segment-granularity receipts of the given customers, in (date,
/// customer) order — the order a live feed delivers them.
pub fn wire_receipts(segments: &ReceiptStore, customers: &[CustomerId]) -> Vec<WireReceipt> {
    let mut out = Vec::new();
    for &c in customers {
        for r in segments
            .customer_receipts(c)
            .expect("customer comes from the store")
        {
            out.push(WireReceipt {
                customer: c.raw(),
                date: r.date,
                items: r.items.iter().map(|i| i.raw()).collect(),
            });
        }
    }
    out.sort_by_key(|r| (r.date, r.customer));
    out
}

/// The store's customers in a seeded random order, so each phase of a
/// run draws a mix of both cohorts.
pub fn shuffled_customers(store: &ReceiptStore, seed: u64) -> Vec<CustomerId> {
    let mut ids: Vec<CustomerId> = store.customers().collect();
    Mix(seed ^ 0xC0FF_EE00).shuffle(&mut ids);
    ids
}

// ---------------------------------------------------------------------
// The restart workload's state: the `capacity_bench` shape.

/// Windows each resident customer has receipts in before the checkpoint.
pub const RESIDENT_WINDOWS: u32 = 3;
/// Distinct items per receipt, drawn from a 100k catalogue.
const ITEMS_PER_RECEIPT: usize = 8;
const CATALOGUE: u64 = 100_000;

/// One-month windows, like `capacity_bench`.
pub fn resident_spec() -> WindowSpec {
    WindowSpec::months(origin(), 1)
}

/// The receipt of `customer` in one-month window `w`.
pub fn resident_receipt(seed: u64, customer: u64, w: u32) -> WireReceipt {
    let mut mix = Mix(seed ^ customer.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(w) << 56);
    let mut items: Vec<u32> = (0..ITEMS_PER_RECEIPT)
        .map(|_| (mix.next() % CATALOGUE) as u32 + 1)
        .collect();
    items.sort_unstable();
    items.dedup();
    WireReceipt {
        customer,
        date: origin().add_months(w as i32) + 4,
        items,
    }
}

/// A monitor holding customers `1..=n`, each with receipts in the first
/// [`RESIDENT_WINDOWS`] windows.
pub fn resident_monitor(seed: u64, n: u64) -> StabilityMonitor {
    let mut m =
        StabilityMonitor::new(resident_spec(), params()).with_max_explanations(MAX_EXPLANATIONS);
    for c in 1..=n {
        for w in 0..RESIDENT_WINDOWS {
            let r = resident_receipt(seed, c, w);
            let basket = Basket::new(r.items.iter().map(|&i| ItemId::new(i)).collect());
            let _ = m.ingest(CustomerId::new(c), r.date, &basket);
        }
    }
    m
}

/// Customers `1..=n` in a seeded random order: the restart workload
/// touches them scattered across the whole state.
pub fn resident_order(seed: u64, n: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (1..=n).collect();
    Mix(seed ^ 0x5CA7_7E55).shuffle(&mut ids);
    ids
}

/// Every receipt of the resident customers as a store (the input of
/// the offline layers on the restart workload).
pub fn resident_store(seed: u64, n: u64, tail: &[u64]) -> ReceiptStore {
    let mut b = ReceiptStoreBuilder::with_capacity(n as usize * RESIDENT_WINDOWS as usize);
    let mut push = |r: WireReceipt| {
        let basket = Basket::new(r.items.iter().map(|&i| ItemId::new(i)).collect());
        b.push(Receipt::new(
            CustomerId::new(r.customer),
            r.date,
            basket,
            Cents(0),
        ));
    };
    for c in 1..=n {
        for w in 0..RESIDENT_WINDOWS {
            push(resident_receipt(seed, c, w));
        }
    }
    for &c in tail {
        push(resident_receipt(seed, c, RESIDENT_WINDOWS));
    }
    b.build()
}
