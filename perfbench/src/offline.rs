//! The paper's offline pipeline: receipts file → `ReceiptStore` →
//! segment projection → `WindowedDatabase` → `StabilityEngine::compute`
//! (one thread) → `rank_at` with explanations.

use crate::gen::{params, MAX_EXPLANATIONS, WINDOW_MONTHS};
use crate::util::{fnv1a, proc_status_bytes};
use attrition_core::{analyze_customer, StabilityEngine, StabilityMatrix, StabilityMonitor};
use attrition_store::csv_io::{receipts_from_csv, taxonomy_from_csv};
use attrition_store::{
    project_to_segments, ReceiptStore, WindowAlignment, WindowSpec, WindowedDatabase,
};
use attrition_types::{Basket, WindowIndex};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

pub const RECEIPTS_FILE: &str = "receipts.csv";
pub const TAXONOMY_FILE: &str = "taxonomy.csv";

/// Stage times and output of one pipeline pass.
pub struct Pass {
    /// Every customer ranked at the last window, with explanations.
    pub ranked: String,
    pub receipts: usize,
    pub customers: usize,
    pub load: Duration,
    pub project: Duration,
    pub windowing: Duration,
    pub compute: Duration,
    pub rank: Duration,
    pub started: Instant,
    pub db: WindowedDatabase,
}

/// Grid of the offline pipeline: 2-month windows from the first
/// receipt's month (what `attrition rank` derives).
pub fn spec_of(store: &ReceiptStore, months: u32) -> WindowSpec {
    let (first, _) = store.date_range().expect("receipts file is not empty");
    WindowSpec::months(first.first_of_month(), months)
}

/// One pass over `receipts_csv` (product level) and an optional
/// taxonomy; without a taxonomy the items already are the modelling
/// level. `months` is the window length.
pub fn run_pass(receipts_csv: &str, taxonomy_csv: Option<&str>, months: u32) -> Pass {
    let t0 = Instant::now();
    let store = receipts_from_csv(receipts_csv).expect("receipts file parses");
    let load = t0.elapsed();
    let t = Instant::now();
    let store = match taxonomy_csv {
        Some(text) => {
            let taxonomy = taxonomy_from_csv(text).expect("taxonomy file parses");
            project_to_segments(&store, &taxonomy).expect("receipts reference cataloged products")
        }
        None => store,
    };
    let project = t.elapsed();
    let t = Instant::now();
    let db =
        WindowedDatabase::covering_store(&store, spec_of(&store, months), WindowAlignment::Global);
    let windowing = t.elapsed();
    let t = Instant::now();
    let matrix = StabilityEngine::new(params())
        .with_max_explanations(MAX_EXPLANATIONS)
        .with_threads(1)
        .compute(&db);
    let compute = t.elapsed();
    let t = Instant::now();
    let ranked = render_ranking(&matrix, db.num_windows.saturating_sub(1));
    let rank = t.elapsed();
    Pass {
        ranked,
        receipts: store.num_receipts(),
        customers: db.num_customers(),
        load,
        project,
        windowing,
        compute,
        rank,
        started: t0,
        db,
    }
}

/// Every customer ranked at window `k` (most at risk first), each with
/// its lost products: `customer score item:share,...`.
pub fn render_ranking(matrix: &StabilityMatrix, k: u32) -> String {
    let k = WindowIndex::new(k);
    let mut out = String::new();
    for (customer, score) in matrix.rank_at(k, matrix.num_customers()) {
        let _ = write!(out, "{} {score:?}", customer.raw());
        if let Some(e) = matrix.explanation(customer, k) {
            for (i, l) in e.lost.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{}:{:?}",
                    if i == 0 { ' ' } else { ',' },
                    l.item.raw(),
                    l.share
                );
            }
        }
        out.push('\n');
    }
    out
}

/// One explanation query: a customer's whole trajectory with its lost
/// products, rendered as `attrition explain` would list it.
pub fn explain(db: &WindowedDatabase, index: usize, out: &mut String) {
    let windows = &db.customers()[index];
    let analysis = analyze_customer(windows, params(), MAX_EXPLANATIONS);
    out.clear();
    for (point, expl) in analysis.points.iter().zip(&analysis.explanations) {
        let _ = write!(out, "{} {:?}", point.window.raw(), point.value);
        for l in &expl.lost {
            let _ = write!(out, " {}:{:?}", l.item.raw(), l.share);
        }
        out.push('\n');
    }
}

/// Cross-check a batch ranking against a streaming-monitor fold of the
/// same receipts: every ranked customer's score must agree within
/// 1e-9, with the same lost products in the same order. Returns the
/// disagreements.
pub fn monitor_cross_check(receipts_csv: &str, taxonomy_csv: &str, ranked: &str) -> Vec<String> {
    let store = receipts_from_csv(receipts_csv).expect("receipts file parses");
    let taxonomy = taxonomy_from_csv(taxonomy_csv).expect("taxonomy file parses");
    let store =
        project_to_segments(&store, &taxonomy).expect("receipts reference cataloged products");
    let spec = spec_of(&store, WINDOW_MONTHS);
    let (_, last) = store.date_range().expect("receipts file is not empty");
    let k = spec.windows_covering(last).saturating_sub(1);
    let mut stream: Vec<_> = store.receipts().collect();
    stream.sort_by_key(|r| (r.date, r.customer));
    let mut monitor = StabilityMonitor::new(spec, params()).with_max_explanations(MAX_EXPLANATIONS);
    let mut at_k = std::collections::HashMap::new();
    let mut keep = |closed: Vec<attrition_core::WindowClosed>| {
        for c in closed {
            if c.point.window.raw() == k {
                at_k.insert(c.customer.raw(), c);
            }
        }
    };
    for r in stream {
        keep(monitor.ingest(r.customer, r.date, &Basket::new(r.items.to_vec())));
    }
    keep(monitor.flush_until(spec.window_start(k + 1)));
    let mut bad = Vec::new();
    for line in ranked.lines() {
        let mut fields = line.split(' ');
        let customer: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("ranked line");
        let score: f64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("ranked line");
        let lost: Vec<u32> = fields
            .next()
            .map(|f| {
                f.split(',')
                    .map(|p| {
                        p.split(':')
                            .next()
                            .and_then(|i| i.parse().ok())
                            .expect("item")
                    })
                    .collect()
            })
            .unwrap_or_default();
        match at_k.get(&customer) {
            Some(c)
                if ((1.0 - c.point.value) - score).abs() <= 1e-9
                    && c.explanation
                        .lost
                        .iter()
                        .map(|l| l.item.raw())
                        .eq(lost.iter().copied()) => {}
            other => bad.push(format!(
                "customer {customer}: batch score {score} lost {lost:?}, monitor {:?}",
                other.map(|c| (
                    1.0 - c.point.value,
                    c.explanation
                        .lost
                        .iter()
                        .map(|l| l.item.raw())
                        .collect::<Vec<_>>()
                ))
            )),
        }
    }
    if at_k.len() != ranked.lines().count() {
        bad.push(format!(
            "monitor closed window {k} for {} customers, batch ranked {}",
            at_k.len(),
            ranked.lines().count()
        ));
    }
    bad
}

/// The child process of the offline restart measurement: load the files
/// in `dir`, print `RANKED <checksum> <customers>` as soon as the ranked
/// output exists, then this process's peak resident set as `HWM <bytes>`.
pub fn child(dir: &Path) {
    let receipts = std::fs::read_to_string(dir.join(RECEIPTS_FILE)).expect("read receipts");
    let taxonomy = std::fs::read_to_string(dir.join(TAXONOMY_FILE)).expect("read taxonomy");
    let pass = run_pass(&receipts, Some(&taxonomy), WINDOW_MONTHS);
    println!(
        "RANKED {:016x} {}",
        fnv1a(pass.ranked.as_bytes()),
        pass.customers
    );
    let hwm = proc_status_bytes(std::process::id(), "VmHWM:").unwrap_or(0);
    println!("HWM {hwm}");
}
