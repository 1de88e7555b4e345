//! Bit-identity regression suite for the count-histogram significance
//! kernel.
//!
//! The histogram gives `total_significance()` one canonical summation
//! order (ascending occurrence count), so scores must be **bit-identical**
//! — not merely close — across every way of arriving at the same state:
//! independently-built trackers (distinct `HashMap` hash seeds),
//! snapshot→restore round-trips (counters replayed in checkpoint order),
//! and the batch engine vs the streaming monitor. The pre-histogram
//! kernel summed in hash-map iteration order and satisfied none of
//! these; a regression to per-item summation fails this suite with high
//! probability.

use attrition_core::{
    analyze_customer, stability_series, SignificanceTracker, StabilityMonitor, StabilityParams,
    WindowClosed,
};
use attrition_store::{CustomerWindows, WindowSpec};
use attrition_types::{Basket, CustomerId, Date, ItemId};
use attrition_util::check::{forall, gen_vec};

fn d(y: i32, m: u32, day: u32) -> Date {
    Date::from_ymd(y, m, day).unwrap()
}

fn b(raw: &[u32]) -> Basket {
    Basket::from_raw(raw)
}

fn gen_history(rng: &mut attrition_util::Rng) -> Vec<Vec<u32>> {
    gen_vec(rng, 1, 14, |r| {
        gen_vec(r, 0, 6, |rr| rr.u64_below(25) as u32)
    })
}

/// (a) Two independently-built trackers fed the same history report
/// bit-identical totals at every window. Each `HashMap` gets its own
/// random hash seed, so any iteration-order dependence shows up here.
#[test]
fn independent_trackers_bit_identical() {
    forall(128, gen_history, |history| {
        let mut first = SignificanceTracker::new(StabilityParams::PAPER);
        let mut second = SignificanceTracker::new(StabilityParams::PAPER);
        for u in history {
            let basket = b(u);
            first.observe_window(&basket);
            second.observe_window(&basket);
            assert_eq!(
                first.total_significance().to_bits(),
                second.total_significance().to_bits(),
                "independently-built trackers diverged at window {}",
                first.windows_observed()
            );
        }
    });
}

/// (b) A monitor restored from a binary snapshot produces bit-identical
/// previews *and* bit-identical future closed-window scores. The
/// restore path rebuilds each tracker from its sorted count columns in
/// one pass — a different construction than live ingest, which the old
/// hash-order summation was sensitive to.
#[test]
fn snapshot_restore_bit_identical() {
    let spec = WindowSpec::months(d(2012, 5, 1), 1);
    forall(
        48,
        |rng| {
            // Date-sorted receipt stream: (customer, month, day, items).
            let n_receipts = 1 + rng.usize_below(40);
            let mut stream: Vec<(u64, i32, i32, Vec<u32>)> = (0..n_receipts)
                .map(|_| {
                    (
                        rng.u64_below(6),
                        rng.i64_in(0, 5) as i32,
                        rng.i64_in(0, 27) as i32,
                        gen_vec(rng, 0, 5, |rr| 1 + rr.u64_below(30) as u32),
                    )
                })
                .collect();
            stream.sort_by_key(|&(customer, month, day, _)| (month, day, customer));
            stream
        },
        |stream| {
            let mut original = StabilityMonitor::new(spec, StabilityParams::PAPER);
            for (customer, month, day, items) in stream {
                let date = d(2012, 5, 1).add_months(*month) + *day;
                original.ingest(CustomerId::new(*customer), date, &b(items));
            }
            let mut restored = StabilityMonitor::restore_bytes(&original.snapshot_bytes())
                .expect("snapshot restores");

            for customer in original.customer_ids() {
                let live = original.preview(customer).unwrap();
                let back = restored.preview(customer).unwrap();
                assert_eq!(live.window, back.window);
                assert_eq!(live.value.to_bits(), back.value.to_bits());
                assert_eq!(
                    live.present_significance.to_bits(),
                    back.present_significance.to_bits()
                );
                assert_eq!(
                    live.total_significance.to_bits(),
                    back.total_significance.to_bits()
                );
            }

            // Future outputs stay bit-identical, not just current state.
            let drain = |m: &mut StabilityMonitor| -> Vec<WindowClosed> {
                let mut out = Vec::new();
                for customer in m.customer_ids() {
                    out.extend(m.ingest(customer, d(2013, 1, 10), &b(&[1, 7])));
                }
                out.extend(m.flush_until(d(2013, 6, 1)));
                out
            };
            let out_a = drain(&mut original);
            let out_b = drain(&mut restored);
            assert_eq!(out_a.len(), out_b.len());
            for (x, y) in out_a.iter().zip(&out_b) {
                assert_eq!(x.customer, y.customer);
                assert_eq!(x.point.window, y.point.window);
                assert_eq!(x.point.value.to_bits(), y.point.value.to_bits());
                assert_eq!(x.explanation.lost.len(), y.explanation.lost.len());
                for (la, lb) in x.explanation.lost.iter().zip(&y.explanation.lost) {
                    assert_eq!(la.item, lb.item);
                    assert_eq!(la.significance.to_bits(), lb.significance.to_bits());
                    assert_eq!(la.share.to_bits(), lb.share.to_bits());
                }
            }
        },
    );
}

/// (c) Batch `stability_series` / `analyze_customer` and the streaming
/// monitor score the same customer bit-identically — value, numerator,
/// denominator, and every explanation's items, significances and shares
/// — and every explanation is stored at its exact length.
#[test]
fn batch_and_streaming_bit_identical() {
    let spec = WindowSpec::months(d(2012, 5, 1), 1);
    forall(64, gen_history, |history| {
        let customer = CustomerId::new(42);
        let windows = CustomerWindows {
            customer,
            baskets: history.iter().map(|v| b(v)).collect(),
            trips: vec![1; history.len()],
            spend: vec![attrition_types::Cents(0); history.len()],
            last_purchase: vec![None; history.len()],
            spec,
        };
        let batch = stability_series(&windows, StabilityParams::PAPER);
        let analysis = analyze_customer(&windows, StabilityParams::PAPER, 5);
        assert_eq!(analysis.points, batch);

        let mut monitor = StabilityMonitor::new(spec, StabilityParams::PAPER);
        let mut online = Vec::new();
        for (month, items) in history.iter().enumerate() {
            if !items.is_empty() {
                let date = d(2012, 5, 5).add_months(month as i32);
                online.extend(monitor.ingest(customer, date, &b(items)));
            }
        }
        online.extend(monitor.flush_until(d(2012, 5, 1).add_months(history.len() as i32)));

        if history.iter().all(|items| items.is_empty()) {
            // The monitor never saw the customer: nothing to compare.
            assert!(online.is_empty());
            return;
        }
        assert_eq!(online.len(), batch.len());
        for ((closed, point), expl) in online.iter().zip(&batch).zip(&analysis.explanations) {
            assert_eq!(closed.point.window, point.window);
            assert_eq!(closed.point.value.to_bits(), point.value.to_bits());
            assert_eq!(
                closed.point.present_significance.to_bits(),
                point.present_significance.to_bits()
            );
            assert_eq!(
                closed.point.total_significance.to_bits(),
                point.total_significance.to_bits()
            );
            assert_eq!(closed.explanation.window, expl.window);
            assert_eq!(closed.explanation.lost.len(), expl.lost.len());
            for (a, b) in closed.explanation.lost.iter().zip(&expl.lost) {
                assert_eq!(a.item, b.item);
                assert_eq!(a.significance.to_bits(), b.significance.to_bits());
                assert_eq!(a.share.to_bits(), b.share.to_bits());
            }
            for lost in [&closed.explanation.lost, &expl.lost] {
                assert_eq!(lost.capacity(), lost.len(), "explanation kept slack");
            }
        }
    });
}

/// Spot-check of the tracker's histogram accessor across the public
/// surface this suite leans on: after any history, `Σ hist[c]` equals
/// the tracked-item count and the paper's worked example still scores
/// exactly 0.5.
#[test]
fn kernel_sanity_on_worked_example() {
    let mut tracker = SignificanceTracker::new(StabilityParams::PAPER);
    tracker.observe_window(&b(&[1, 2]));
    tracker.observe_window(&b(&[1, 2]));
    // k=2: S(1)=S(2)=4; losing item 2 → 4/8.
    assert_eq!(tracker.present_significance(&b(&[1])), 4.0);
    assert_eq!(tracker.total_significance(), 8.0);
    assert_eq!(tracker.count_histogram(), &[0, 0, 2]);
    assert_eq!(tracker.significance(ItemId::new(2)), 4.0);
    assert_eq!(
        tracker
            .count_histogram()
            .iter()
            .map(|&n| n as usize)
            .sum::<usize>(),
        tracker.num_tracked()
    );
}
