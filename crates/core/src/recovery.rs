//! Regained-product detection.
//!
//! The mirror image of the paper's explanation: once a retailer has
//! targeted a customer over a lost product, the question becomes *did
//! the intervention work* — did the product come back, and did stability
//! recover? This module detects, per window, previously significant
//! products that were absent in the immediately preceding window(s) and
//! are present again, together with the stability delta.

use crate::params::StabilityParams;
use crate::significance::SignificanceTracker;
use attrition_store::CustomerWindows;
use attrition_types::{ItemId, WindowIndex};

/// A product that returned after an absence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegainedProduct {
    /// The returning product.
    pub item: ItemId,
    /// Its significance at the window it returned in (computed on the
    /// history *before* that window, i.e. while still absent).
    pub significance: f64,
    /// Consecutive windows it had been absent immediately before
    /// returning (≥ 1).
    pub absence_run: u32,
}

/// Recovery events of one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecovery {
    /// The window the products returned in.
    pub window: WindowIndex,
    /// Returning products, most significant first.
    pub regained: Vec<RegainedProduct>,
    /// Stability in this window minus stability in the previous window
    /// (`NaN` for window 0).
    pub stability_delta: f64,
}

/// Detect recovery events across a customer's windows.
///
/// A product counts as *regained* in window `k` when it is present in
/// `u_k`, was bought at least once before, and was absent in `u_{k−1}`
/// (the run length counts further consecutive absences backwards).
/// Products below `min_significance` at their return are ignored — a
/// returning one-off exploration item is not a recovery signal.
pub fn detect_recoveries(
    windows: &CustomerWindows,
    params: StabilityParams,
    min_significance: f64,
) -> Vec<WindowRecovery> {
    let mut tracker = SignificanceTracker::new(params);
    let mut out = Vec::with_capacity(windows.num_windows());
    // Absence run per item, maintained incrementally.
    let mut absence_run: std::collections::HashMap<ItemId, u32> = std::collections::HashMap::new();
    let mut prev_stability = f64::NAN;
    for (k, u) in windows.baskets.iter().enumerate() {
        let k = WindowIndex::new(k as u32);
        let stability = tracker.score_window(k, u.items(), 0, &mut Vec::new()).value;

        let mut regained: Vec<RegainedProduct> = u
            .iter()
            .filter_map(|item| {
                let run = *absence_run.get(&item).unwrap_or(&0);
                if run == 0 {
                    return None;
                }
                let significance = tracker.significance(item);
                (significance >= min_significance).then_some(RegainedProduct {
                    item,
                    significance,
                    absence_run: run,
                })
            })
            .collect();
        regained.sort_by(|a, b| {
            b.significance
                .total_cmp(&a.significance)
                .then(a.item.cmp(&b.item))
        });
        out.push(WindowRecovery {
            window: k,
            regained,
            stability_delta: stability - prev_stability,
        });

        // Update absence runs: reset for present items, increment for
        // tracked absent items.
        for item in u.iter() {
            absence_run.insert(item, 0);
        }
        for (item, run) in absence_run.iter_mut() {
            if !u.contains(*item) {
                *run += 1;
            }
        }
        tracker.observe_window(u);
        prev_stability = stability;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_store::WindowSpec;
    use attrition_types::{Basket, Cents, CustomerId, Date};

    fn windows_of(sets: &[&[u32]]) -> CustomerWindows {
        CustomerWindows {
            customer: CustomerId::new(1),
            baskets: sets.iter().map(|s| Basket::from_raw(s)).collect(),
            trips: vec![1; sets.len()],
            spend: vec![Cents(0); sets.len()],
            last_purchase: vec![None; sets.len()],
            spec: WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 2),
        }
    }

    #[test]
    fn detects_simple_return() {
        // Item 1 bought, absent once, returns.
        let w = windows_of(&[&[1, 2], &[2], &[1, 2]]);
        let recoveries = detect_recoveries(&w, StabilityParams::PAPER, 0.0);
        assert!(recoveries[0].regained.is_empty());
        assert!(recoveries[1].regained.is_empty());
        let r = &recoveries[2].regained;
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].item, ItemId::new(1));
        assert_eq!(r[0].absence_run, 1);
        // Stability recovered: delta positive.
        assert!(recoveries[2].stability_delta > 0.0);
    }

    #[test]
    fn absence_run_counts_consecutive_windows() {
        let w = windows_of(&[&[1], &[], &[], &[], &[1]]);
        let recoveries = detect_recoveries(&w, StabilityParams::PAPER, 0.0);
        let r = &recoveries[4].regained;
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].absence_run, 3);
    }

    #[test]
    fn min_significance_filters_noise() {
        // Item 9 was bought once long ago (significance tiny by return),
        // item 1 is established.
        let w = windows_of(&[&[1, 9], &[1], &[1], &[1], &[1, 9]]);
        let all = detect_recoveries(&w, StabilityParams::PAPER, 0.0);
        assert_eq!(all[4].regained.len(), 1);
        assert_eq!(all[4].regained[0].item, ItemId::new(9));
        // S(9) at k=4 with c=1: 2^(2−4) = 0.25 → filtered at 0.5.
        let filtered = detect_recoveries(&w, StabilityParams::PAPER, 0.5);
        assert!(filtered[4].regained.is_empty());
    }

    #[test]
    fn new_items_are_not_recoveries() {
        let w = windows_of(&[&[1], &[1, 2]]);
        let recoveries = detect_recoveries(&w, StabilityParams::PAPER, 0.0);
        // Item 2 is new in window 1, not regained.
        assert!(recoveries[1].regained.is_empty());
    }

    #[test]
    fn ranking_by_significance() {
        // Items 1 (established) and 9 (seen once) both return at k=4.
        let w = windows_of(&[&[1, 9], &[1], &[1], &[], &[1, 9]]);
        let recoveries = detect_recoveries(&w, StabilityParams::PAPER, 0.0);
        let r = &recoveries[4].regained;
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].item, ItemId::new(1));
        assert!(r[0].significance > r[1].significance);
    }

    #[test]
    fn first_window_delta_nan() {
        let w = windows_of(&[&[1]]);
        let recoveries = detect_recoveries(&w, StabilityParams::PAPER, 0.0);
        assert!(recoveries[0].stability_delta.is_nan());
    }

    #[test]
    fn empty_windows_produce_no_recoveries() {
        let w = windows_of(&[&[], &[], &[]]);
        let recoveries = detect_recoveries(&w, StabilityParams::PAPER, 0.0);
        assert!(recoveries.iter().all(|r| r.regained.is_empty()));
    }
}
