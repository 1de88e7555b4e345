//! The close step against the code it replaced.
//!
//! `SignificanceTracker::close_window` scores a window, ranks its lost
//! products and folds the window in, in one walk of the tracker's sorted
//! columns. Before it, the batch engine and the streaming monitor each
//! computed the same result from the tracker's public accessors: the
//! point from `total_significance` and `present_significance`, the lost
//! set by filtering `tracked_items()` with `!u.contains`, and its top K by
//! `select_top_lost` (kept below as the reference). Every point and every
//! explanation of the close step must equal that reference by
//! `f64::to_bits`, through `analyze_customer`, `stability_series` and the
//! monitor — including where different counts give equal significance:
//! past the ±1000 exponent clamp, and at α = 8, whose powers underflow to
//! 0.0 once `2c − k ≤ −342`.

use attrition_core::{
    analyze_customer, stability_series, LostProduct, SignificanceTracker, StabilityMonitor,
    StabilityParams, StabilityPoint, WindowClosed,
};
use attrition_store::{CustomerWindows, WindowSpec};
use attrition_types::{Basket, CustomerId, Date, ItemId, WindowIndex};
use attrition_util::check::forall;
use attrition_util::Rng;
use std::cmp::Ordering;

/// Significance-descending order with ties broken by item id.
fn rank_lost(a: &LostProduct, b: &LostProduct) -> Ordering {
    b.significance
        .total_cmp(&a.significance)
        .then(a.item.cmp(&b.item))
}

/// Reduce a lost-product set to its `k` most significant entries,
/// sorted most-significant-first (ties broken by item id):
/// `select_nth_unstable_by` partitions the top `k`, then only that prefix
/// is sorted.
fn select_top_lost(mut lost: Vec<LostProduct>, k: usize) -> Vec<LostProduct> {
    if k == 0 {
        lost.clear();
    } else if k < lost.len() {
        lost.select_nth_unstable_by(k - 1, rank_lost);
        lost.truncate(k);
    }
    lost.sort_unstable_by(rank_lost);
    lost
}

/// One window closed the old way: score, collect the whole lost set,
/// select its top `max_lost`, fold the window in.
fn reference_close(
    tracker: &mut SignificanceTracker,
    k: u32,
    u: &Basket,
    max_lost: usize,
) -> (StabilityPoint, Vec<LostProduct>) {
    let total = tracker.total_significance();
    let present = tracker.present_significance(u);
    let point = StabilityPoint {
        window: WindowIndex::new(k),
        value: if total > 0.0 { present / total } else { 1.0 },
        present_significance: present,
        total_significance: total,
    };
    let lost: Vec<LostProduct> = tracker
        .tracked_items()
        .filter(|(item, c, _, _)| *c > 0 && !u.contains(*item))
        .map(|(item, _, _, s)| LostProduct {
            item,
            significance: s,
            share: if total > 0.0 { s / total } else { 0.0 },
        })
        .collect();
    let lost = select_top_lost(lost, max_lost);
    tracker.observe_window(u);
    (point, lost)
}

/// A customer history drawn from a seed: each item has its own purchase
/// rate per window, from rare (its count stays far below `k/2`) to
/// near-certain, and some windows are forced empty.
#[derive(Debug)]
struct Case {
    alpha: f64,
    max_lost: usize,
    windows: usize,
    rates: Vec<f64>,
    empty_share: f64,
    seed: u64,
}

impl Case {
    fn params(&self) -> StabilityParams {
        StabilityParams::new(self.alpha).expect("α > 1")
    }

    /// Item ids are odd, so ids never bought sit between bought ones.
    fn history(&self) -> Vec<Basket> {
        let mut rng = Rng::seed_from_u64(self.seed);
        (0..self.windows)
            .map(|_| {
                if rng.bernoulli(self.empty_share) {
                    return Basket::empty();
                }
                let items = (0..self.rates.len() as u32)
                    .filter(|&i| rng.bernoulli(self.rates[i as usize]))
                    .map(|i| ItemId::new(2 * i + 1))
                    .collect();
                Basket::new(items)
            })
            .collect()
    }

    fn reference(&self) -> Vec<(StabilityPoint, Vec<LostProduct>)> {
        let mut tracker = SignificanceTracker::new(self.params());
        self.history()
            .iter()
            .enumerate()
            .map(|(k, u)| reference_close(&mut tracker, k as u32, u, self.max_lost))
            .collect()
    }
}

/// α ∈ {2, 8, uniform in (1, 8]}; K ∈ {0, 1, 5, more than any lost set};
/// `windows` either short or past 1000, where the exponent clamp (and
/// at α = 8 long before it, underflow) makes distinct counts tie.
fn gen_case(rng: &mut Rng, long: bool) -> Case {
    let alpha = match rng.usize_below(3) {
        0 => 2.0,
        1 => 8.0,
        _ => 8.0 - 7.0 * rng.f64(),
    };
    let n_items = 1 + rng.usize_below(14);
    let max_lost = match rng.usize_below(4) {
        0 => 0,
        1 => 1,
        2 => 5,
        _ => n_items + 1 + rng.usize_below(4),
    };
    let windows = if long {
        1001 + rng.usize_below(700)
    } else {
        1 + rng.usize_below(24)
    };
    let rates = (0..n_items)
        .map(|_| match rng.usize_below(4) {
            0 => 0.002 + 0.02 * rng.f64(),
            1 => 0.97 + 0.03 * rng.f64(),
            _ => rng.f64(),
        })
        .collect();
    Case {
        alpha,
        max_lost,
        windows,
        rates,
        empty_share: 0.25 * rng.f64(),
        seed: rng.next_u64(),
    }
}

fn assert_point_eq(got: &StabilityPoint, want: &StabilityPoint) {
    assert_eq!(got.window, want.window);
    assert_eq!(
        got.value.to_bits(),
        want.value.to_bits(),
        "value at {}",
        want.window
    );
    assert_eq!(
        got.present_significance.to_bits(),
        want.present_significance.to_bits(),
        "numerator at {}",
        want.window
    );
    assert_eq!(
        got.total_significance.to_bits(),
        want.total_significance.to_bits(),
        "denominator at {}",
        want.window
    );
}

fn assert_lost_eq(got: &[LostProduct], want: &[LostProduct], window: WindowIndex) {
    assert_eq!(got.len(), want.len(), "lost set size at {window}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.item, w.item, "lost item at {window}");
        assert_eq!(g.significance.to_bits(), w.significance.to_bits());
        assert_eq!(g.share.to_bits(), w.share.to_bits());
    }
}

fn windows_of(history: Vec<Basket>, spec: WindowSpec) -> CustomerWindows {
    let n = history.len();
    CustomerWindows {
        customer: CustomerId::new(7),
        baskets: history,
        trips: vec![1; n],
        spend: vec![attrition_types::Cents(0); n],
        last_purchase: vec![None; n],
        spec,
    }
}

fn spec() -> WindowSpec {
    WindowSpec::days(Date::from_ymd(2012, 5, 1).unwrap(), 1)
}

fn check_batch(case: &Case) {
    let reference = case.reference();
    let windows = windows_of(case.history(), spec());
    let analysis = analyze_customer(&windows, case.params(), case.max_lost);
    assert_eq!(analysis.points.len(), reference.len());
    for ((point, expl), (want, want_lost)) in analysis
        .points
        .iter()
        .zip(&analysis.explanations)
        .zip(&reference)
    {
        assert_point_eq(point, want);
        assert_eq!(expl.window, want.window);
        assert_lost_eq(&expl.lost, want_lost, want.window);
        assert_eq!(expl.lost.capacity(), expl.lost.len(), "exact-size lost set");
    }
    let series = stability_series(&windows, case.params());
    assert_eq!(series.len(), reference.len());
    for (point, (want, _)) in series.iter().zip(&reference) {
        assert_point_eq(point, want);
    }
}

/// Feed the history to a monitor as receipts, splitting each window's
/// items over up to three receipts that overlap (so pending holds
/// duplicates out of order), then compare every closed window and the
/// preview of the still-open last window.
fn check_monitor(case: &Case) {
    let reference = case.reference();
    let history = case.history();
    let spec = spec();
    let customer = CustomerId::new(7);
    let mut monitor =
        StabilityMonitor::new(spec, case.params()).with_max_explanations(case.max_lost);
    let mut rng = Rng::seed_from_u64(case.seed ^ 0x5eed);
    let mut closed: Vec<WindowClosed> = Vec::new();
    for (k, u) in history.iter().enumerate() {
        if u.is_empty() {
            continue;
        }
        let date = spec.window_start(k as u32);
        let receipts = 1 + rng.usize_below(3);
        for r in (0..receipts).rev() {
            let part: Vec<ItemId> = u.iter().filter(|_| r == 0 || rng.bernoulli(0.5)).collect();
            closed.extend(monitor.ingest(customer, date, &Basket::new(part)));
        }
    }
    let Some(last_bought) = history.iter().rposition(|u| !u.is_empty()) else {
        // The monitor never saw the customer.
        assert_eq!(monitor.num_customers(), 0);
        return;
    };
    // The last window that holds receipts is still open: preview it,
    // then close everything.
    let preview = monitor.preview(customer).expect("tracked customer");
    assert_point_eq(&preview, &reference[last_bought].0);
    closed.extend(monitor.flush_until(spec.window_start(history.len() as u32)));
    assert_eq!(closed.len(), reference.len());
    for (event, (want, want_lost)) in closed.iter().zip(&reference) {
        assert_eq!(event.customer, customer);
        assert_point_eq(&event.point, want);
        assert_eq!(event.explanation.window, want.window);
        assert_lost_eq(&event.explanation.lost, want_lost, want.window);
        assert_eq!(
            event.explanation.lost.capacity(),
            event.explanation.lost.len(),
            "exact-size lost set"
        );
    }
}

#[test]
fn close_step_matches_the_reference_on_short_histories() {
    forall(
        384,
        |rng| gen_case(rng, false),
        |case| {
            check_batch(case);
            check_monitor(case);
        },
    );
}

#[test]
fn close_step_matches_the_reference_past_the_clamp_and_underflow() {
    forall(
        12,
        |rng| gen_case(rng, true),
        |case| {
            check_batch(case);
            check_monitor(case);
        },
    );
}

/// The long histories really reach the regimes they are there for: at
/// α = 2 and k = 1500, counts 1 and 2 score the same (both exponents
/// clamp to −1000), and at α = 8 a count far below `k/2` scores 0.0.
#[test]
fn clamp_and_underflow_make_distinct_counts_tie() {
    let mut at_two = SignificanceTracker::new(StabilityParams::PAPER);
    let mut at_eight = SignificanceTracker::new(StabilityParams::new(8.0).unwrap());
    for _ in 0..1500 {
        at_two.observe_window(&Basket::empty());
        at_eight.observe_window(&Basket::empty());
    }
    assert_eq!(
        at_two.significance_of_count(1).to_bits(),
        at_two.significance_of_count(2).to_bits()
    );
    assert!(at_two.significance_of_count(1) > 0.0);
    assert_eq!(at_eight.significance_of_count(500), 0.0);
    assert_eq!(at_eight.significance_of_count(10), 0.0);

    // A lost set whose items tie keeps the lowest ids, in id order.
    let case = Case {
        alpha: 2.0,
        max_lost: 3,
        windows: 1500,
        rates: vec![0.003; 8],
        empty_share: 0.0,
        seed: 11,
    };
    check_batch(&case);
    check_monitor(&case);
}

#[test]
fn select_top_lost_matches_full_sort() {
    forall(
        256,
        |rng| {
            let n = rng.usize_below(20);
            let lost: Vec<LostProduct> = (0..n)
                .map(|i| LostProduct {
                    item: ItemId::new(i as u32),
                    // Duplicate significances exercise the id tie-break.
                    significance: rng.u64_below(5) as f64,
                    share: 0.0,
                })
                .collect();
            (lost, rng.usize_below(24))
        },
        |(lost_set, k)| {
            let mut reference = lost_set.clone();
            reference.sort_by(rank_lost);
            reference.truncate(*k);
            assert_eq!(select_top_lost(lost_set.clone(), *k), reference);
        },
    );
}

#[test]
fn select_top_lost_edge_cases() {
    let lost = |raw: u32, significance: f64| LostProduct {
        item: ItemId::new(raw),
        significance,
        share: 0.1,
    };
    assert!(select_top_lost(vec![lost(1, 2.0)], 0).is_empty());
    assert!(select_top_lost(Vec::new(), 5).is_empty());
    let all = select_top_lost(vec![lost(2, 1.0), lost(1, 4.0)], 10);
    assert_eq!(all.len(), 2);
    assert_eq!(all[0].item, ItemId::new(1));
}
