//! Per-customer stability series.
//!
//! `Stability_i^k = Σ_{p∈u_k} S(p,k) / Σ_{p∈I} S(p,k)`: the
//! significance-weighted fraction of the customer's established
//! repertoire still present in window `k`. "If all products are
//! contained in window k, the stability of the customer is equal to 1 …
//! The more significant a product is, the more the stability will
//! decrease if this product is not present."
//!
//! Edge convention (documented in DESIGN.md): at `k = 0` there is no
//! history, every `S(p,0) = 0` and the ratio is 0/0; we define the
//! stability as **1.0** — a customer with no history has not deviated
//! from anything. The same convention applies to any later window whose
//! denominator is zero (possible only if the customer has never bought
//! anything yet).

use crate::explanation::WindowExplanation;
use crate::params::StabilityParams;
use crate::significance::SignificanceTracker;
use attrition_store::CustomerWindows;
use attrition_types::WindowIndex;

/// The stability value of one window, with its decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityPoint {
    /// The window (`k`).
    pub window: WindowIndex,
    /// `Stability_i^k ∈ [0, 1]`.
    pub value: f64,
    /// Numerator `Σ_{p∈u_k} S(p,k)`.
    pub present_significance: f64,
    /// Denominator `Σ_{p∈I} S(p,k)`.
    pub total_significance: f64,
}

/// Full per-customer analysis: the stability series plus, for every
/// window, the ranked lost-product explanation.
#[derive(Debug, Clone)]
pub struct CustomerAnalysis {
    /// The customer.
    pub customer: attrition_types::CustomerId,
    /// One point per window.
    pub points: Vec<StabilityPoint>,
    /// One explanation per window (same indexing as `points`).
    pub explanations: Vec<WindowExplanation>,
}

impl CustomerAnalysis {
    /// The series values only.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.value).collect()
    }
}

/// Compute the stability series of one customer's windowed database:
/// the close step with no explanation.
pub fn stability_series(windows: &CustomerWindows, params: StabilityParams) -> Vec<StabilityPoint> {
    let mut tracker = SignificanceTracker::new(params);
    let mut none = Vec::new();
    (0..)
        .zip(&windows.baskets)
        .map(|(k, u)| tracker.close_window(WindowIndex::new(k), u.items(), 0, &mut none))
        .collect()
}

/// Compute the stability series *and* per-window explanations (top
/// `max_products` lost products per window, each stored at exact size).
pub fn analyze_customer(
    windows: &CustomerWindows,
    params: StabilityParams,
    max_products: usize,
) -> CustomerAnalysis {
    let mut tracker = SignificanceTracker::new(params);
    let mut top = Vec::new();
    let mut points = Vec::with_capacity(windows.num_windows());
    let mut explanations = Vec::with_capacity(windows.num_windows());
    for (k, u) in (0..).zip(&windows.baskets) {
        let window = WindowIndex::new(k);
        points.push(tracker.close_window(window, u.items(), max_products, &mut top));
        explanations.push(WindowExplanation {
            window,
            lost: top.to_vec(),
        });
    }
    CustomerAnalysis {
        customer: windows.customer,
        points,
        explanations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_store::WindowSpec;
    use attrition_types::{Basket, CustomerId, Date, ItemId};
    use attrition_util::check::{forall, gen_vec};

    /// Build a CustomerWindows directly from item-set literals.
    fn windows_of(sets: &[&[u32]]) -> CustomerWindows {
        let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 2);
        CustomerWindows {
            customer: CustomerId::new(1),
            baskets: sets.iter().map(|s| Basket::from_raw(s)).collect(),
            trips: vec![1; sets.len()],
            spend: vec![attrition_types::Cents(100); sets.len()],
            last_purchase: vec![None; sets.len()],
            spec,
        }
    }

    #[test]
    fn first_window_is_one() {
        let w = windows_of(&[&[1, 2]]);
        let series = stability_series(&w, StabilityParams::PAPER);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].value, 1.0);
        assert_eq!(series[0].total_significance, 0.0);
    }

    #[test]
    fn perfectly_stable_customer_stays_at_one() {
        let w = windows_of(&[[1, 2, 3].as_slice(); 8]);
        let series = stability_series(&w, StabilityParams::PAPER);
        for p in &series {
            assert_eq!(p.value, 1.0, "window {}", p.window);
        }
    }

    #[test]
    fn paper_worked_example() {
        // Windows: {1,2}, {1,2}, {1} — at k=2: S(1)=2^2=4, S(2)=2^2=4.
        // u_2={1} → stability = 4/8 = 0.5.
        let w = windows_of(&[&[1, 2], &[1, 2], &[1]]);
        let series = stability_series(&w, StabilityParams::PAPER);
        assert_eq!(series[1].value, 1.0);
        assert!((series[2].value - 0.5).abs() < 1e-12);
        assert_eq!(series[2].present_significance, 4.0);
        assert_eq!(series[2].total_significance, 8.0);
    }

    #[test]
    fn more_significant_loss_hurts_more() {
        // Item 1 bought in all 4 prior windows, item 9 in only the last.
        // Losing item 1 must cost more than losing item 9.
        let base: Vec<&[u32]> = vec![&[1], &[1], &[1], &[1, 9]];
        let mut lose_staple = base.clone();
        lose_staple.push(&[9]); // staple 1 missing
        let mut lose_newcomer = base.clone();
        lose_newcomer.push(&[1]); // newcomer 9 missing
        let s_staple = stability_series(&windows_of(&lose_staple), StabilityParams::PAPER);
        let s_newcomer = stability_series(&windows_of(&lose_newcomer), StabilityParams::PAPER);
        let last = 4;
        assert!(
            s_staple[last].value < s_newcomer[last].value,
            "losing the staple ({}) should hurt more than the newcomer ({})",
            s_staple[last].value,
            s_newcomer[last].value
        );
    }

    #[test]
    fn empty_window_scores_zero_once_history_exists() {
        let w = windows_of(&[&[1, 2], &[]]);
        let series = stability_series(&w, StabilityParams::PAPER);
        assert_eq!(series[1].value, 0.0);
        assert!(series[1].total_significance > 0.0);
    }

    #[test]
    fn new_items_do_not_inflate_stability() {
        // Window 2 contains only brand-new items: numerator 0.
        let w = windows_of(&[&[1], &[1], &[50, 51, 52]]);
        let series = stability_series(&w, StabilityParams::PAPER);
        assert_eq!(series[2].value, 0.0);
    }

    #[test]
    fn analysis_explanations_rank_by_significance() {
        // Item 1: 3 prior occurrences; item 2: 2; both missing at k=3.
        let w = windows_of(&[&[1, 2], &[1, 2], &[1], &[]]);
        let analysis = analyze_customer(&w, StabilityParams::PAPER, 10);
        let expl = &analysis.explanations[3];
        assert_eq!(expl.lost.len(), 2);
        assert_eq!(expl.lost[0].item, ItemId::new(1));
        assert_eq!(expl.lost[1].item, ItemId::new(2));
        assert!(expl.lost[0].significance > expl.lost[1].significance);
        // argmax accessor
        assert_eq!(expl.primary().unwrap().item, ItemId::new(1));
        // Shares sum to (total - present)/total here because everything
        // tracked is missing.
        let share_sum: f64 = expl.lost.iter().map(|l| l.share).sum();
        let p = &analysis.points[3];
        let expected = (p.total_significance - p.present_significance) / p.total_significance;
        assert!((share_sum - expected).abs() < 1e-12);
    }

    #[test]
    fn explanations_exclude_present_items() {
        let w = windows_of(&[&[1, 2], &[1, 2], &[1]]);
        let analysis = analyze_customer(&w, StabilityParams::PAPER, 10);
        let expl = &analysis.explanations[2];
        assert_eq!(expl.lost.len(), 1);
        assert_eq!(expl.lost[0].item, ItemId::new(2));
    }

    #[test]
    fn max_products_truncates() {
        let w = windows_of(&[&[1, 2, 3, 4, 5], &[]]);
        let analysis = analyze_customer(&w, StabilityParams::PAPER, 2);
        assert_eq!(analysis.explanations[1].lost.len(), 2);
    }

    #[test]
    fn analysis_points_match_series() {
        let w = windows_of(&[&[1, 2], &[2, 3], &[1], &[], &[3]]);
        let series = stability_series(&w, StabilityParams::PAPER);
        let analysis = analyze_customer(&w, StabilityParams::PAPER, 5);
        assert_eq!(series.len(), analysis.points.len());
        for (a, b) in series.iter().zip(&analysis.points) {
            assert_eq!(a, b);
        }
        assert_eq!(analysis.values().len(), series.len());
    }

    #[test]
    fn stability_recovers_when_item_returns() {
        let w = windows_of(&[&[1], &[1], &[], &[1]]);
        let series = stability_series(&w, StabilityParams::PAPER);
        assert_eq!(series[2].value, 0.0);
        assert_eq!(series[3].value, 1.0); // item returned: all of I present
    }

    /// Stability is always within [0, 1].
    #[test]
    fn bounded() {
        forall(
            256,
            |rng| {
                gen_vec(rng, 1, 15, |r| {
                    gen_vec(r, 0, 5, |rr| rr.u64_below(10) as u32)
                })
            },
            |sets| {
                let refs: Vec<&[u32]> = sets.iter().map(|v| v.as_slice()).collect();
                let w = windows_of(&refs);
                for p in stability_series(&w, StabilityParams::PAPER) {
                    assert!((0.0..=1.0).contains(&p.value), "value {}", p.value);
                    assert!(p.present_significance <= p.total_significance + 1e-9);
                }
            },
        );
    }

    /// Repeating the full repertoire every window keeps stability at 1
    /// regardless of α.
    #[test]
    fn constant_repertoire_invariant() {
        forall(
            128,
            |rng| (rng.f64_in(1.01, 8.0), 1 + rng.usize_below(19)),
            |&(alpha, n)| {
                let w = windows_of(&vec![[3u32, 4, 5].as_slice(); n]);
                let params = StabilityParams::new(alpha).unwrap();
                for p in stability_series(&w, params) {
                    assert!((p.value - 1.0).abs() < 1e-12);
                }
            },
        );
    }
}
