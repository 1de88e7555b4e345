//! CAPACITY — how many resident customers one monitor holds.
//!
//! The paper's deployment target is a 6M-customer retailer, so the
//! serving layer's memory story matters as much as its throughput. This
//! bench grows a single [`StabilityMonitor`] to `N` resident customers
//! (default 1,000,000; `ATTRITION_BENCH_QUICK=1` drops to 50,000 for CI
//! smoke runs), sampling process RSS and the monitor's own heap
//! estimate at milestones along the way, then measures the binary
//! snapshot end to end: encode time, artifact size, and restore time —
//! and asserts its round-trip is byte-identical before reporting.
//!
//! Output: `results/capacity_bench.json`.
//!
//! Run: `cargo run -p attrition-bench --release --bin capacity_bench`

use attrition_bench::write_result;
use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_store::WindowSpec;
use attrition_types::{Basket, CustomerId, Date, ItemId};
use std::time::Instant;

/// Observed windows per customer: enough to close windows (so trackers
/// carry real histograms), small enough that state size is customer-
/// bound, not history-bound — matching the steady-state serving shape.
const WINDOWS_PER_CUSTOMER: usize = 3;
/// Distinct items each customer buys from, drawn from a 100k catalogue.
const ITEMS_PER_CUSTOMER: usize = 8;
const CATALOGUE: u64 = 100_000;

/// Resident set size of this process in bytes (Linux), from
/// `/proc/self/status` `VmRSS`.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The customer's deterministic basket for one window: a SplitMix64
/// walk over the catalogue, so neighbouring customers share no items
/// and re-runs are identical.
fn basket_for(customer: u64, window: usize) -> Basket {
    let mut x = customer
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(window as u64);
    let mut items = Vec::with_capacity(ITEMS_PER_CUSTOMER);
    for _ in 0..ITEMS_PER_CUSTOMER {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        items.push(ItemId::new((x % CATALOGUE) as u32 + 1));
    }
    Basket::new(items)
}

fn main() {
    let quick = std::env::var_os("ATTRITION_BENCH_QUICK").is_some();
    let n_customers: u64 = if quick { 50_000 } else { 1_000_000 };
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let dates: Vec<Date> = (0..WINDOWS_PER_CUSTOMER)
        .map(|w| Date::from_ymd(2012, 5, 1).unwrap().add_months(w as i32) + 4)
        .collect();

    println!(
        "CAPACITY: growing one monitor to {n_customers} resident customers \
         ({WINDOWS_PER_CUSTOMER} windows × {ITEMS_PER_CUSTOMER} items each{})",
        if quick { ", quick mode" } else { "" }
    );

    let mut monitor = StabilityMonitor::new(spec, StabilityParams::PAPER);
    let milestone_every = (n_customers / 10).max(1);
    let mut milestones = String::new();
    let t_build = Instant::now();
    for customer in 1..=n_customers {
        let id = CustomerId::new(customer);
        for (w, date) in dates.iter().enumerate() {
            // Closed-window results are the serving payload; here they
            // are computed and dropped — the bench measures residency.
            let _ = monitor.ingest(id, *date, &basket_for(customer, w));
        }
        if customer.is_multiple_of(milestone_every) || customer == n_customers {
            let rss = rss_bytes().unwrap_or(0);
            let heap = monitor.heap_bytes();
            println!(
                "  {customer:>9} customers: rss {:>6} MiB, monitor heap est. {:>6} MiB",
                rss >> 20,
                heap >> 20
            );
            if !milestones.is_empty() {
                milestones.push(',');
            }
            milestones.push_str(&format!(
                "{{\"customers\":{customer},\"rss_bytes\":{rss},\"heap_bytes\":{heap}}}"
            ));
        }
    }
    let build_s = t_build.elapsed().as_secs_f64();
    assert_eq!(monitor.num_customers(), n_customers as usize);

    // Snapshot size, encode time, restore time.
    let t = Instant::now();
    let binary = monitor.snapshot_bytes();
    let binary_encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let restored = StabilityMonitor::restore_bytes(&binary).expect("binary snapshot restores");
    let binary_restore_s = t.elapsed().as_secs_f64();
    assert_eq!(restored.num_customers(), n_customers as usize);
    assert_eq!(
        restored.snapshot_bytes(),
        binary,
        "binary round-trip must be byte-identical"
    );
    drop(restored);

    let rss_final = rss_bytes().unwrap_or(0);
    println!(
        "built in {build_s:.1}s; binary snapshot {} MiB \
         (encode {binary_encode_s:.2}s, restore {binary_restore_s:.2}s)",
        binary.len() >> 20,
    );

    let json = format!(
        "{{\n\
         \"config\":{{\"n_customers\":{n_customers},\"windows_per_customer\":{WINDOWS_PER_CUSTOMER},\
         \"items_per_customer\":{ITEMS_PER_CUSTOMER},\"quick\":{quick}}},\n\
         \"milestones\":[{milestones}],\n\
         \"build_seconds\":{build_s:.3},\n\
         \"final_rss_bytes\":{rss_final},\n\
         \"monitor_heap_bytes\":{},\n\
         \"binary_snapshot\":{{\"bytes\":{},\"encode_seconds\":{binary_encode_s:.3},\
         \"restore_seconds\":{binary_restore_s:.3},\"round_trip_byte_identical\":true}}\n\
         }}\n",
        monitor.heap_bytes(),
        binary.len(),
    );
    write_result("capacity_bench.json", &json);
}
