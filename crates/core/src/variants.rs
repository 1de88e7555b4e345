//! Alternative significance functions (ablation / future-work study).
//!
//! The paper's conclusion announces deepening "the study of the
//! characterization of significant products". This module implements two
//! natural alternatives to the paper's exponential significance
//! `α^(c−l)` and a tracker that scores stability under any of them, so
//! the `ablation_significance` experiment can compare how the *choice of
//! significance function* affects detection:
//!
//! * [`SignificanceVariant::PaperExponential`] — the paper's `α^(c−l)`;
//!   history-length-sensitive and sharply peaked on always-bought items.
//! * [`SignificanceVariant::FrequencyRatio`] — `c/k`, the plain support
//!   of the item across prior windows; bounded, no forgetting beyond the
//!   dilution of the ratio.
//! * [`SignificanceVariant::Ewma`] — an exponentially weighted moving
//!   average of the item's presence indicator with smoothing `lambda`;
//!   recency-weighted, forgetting controlled directly.
//!
//! All variants share the convention `S = 0` until the item has been
//! seen at least once, and stability is the same present/total ratio.

use crate::stability::StabilityPoint;
use attrition_store::CustomerWindows;
use attrition_types::{Basket, ItemId, WindowIndex};
use std::collections::BTreeMap;

/// Which significance function to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SignificanceVariant {
    /// The paper's `α^(c−l)` with base `alpha > 1`.
    PaperExponential {
        /// Significance base.
        alpha: f64,
    },
    /// Support ratio `c(k) / k`.
    FrequencyRatio,
    /// EWMA of the presence indicator with smoothing `lambda ∈ (0, 1]`.
    Ewma {
        /// Per-window smoothing weight.
        lambda: f64,
    },
}

impl SignificanceVariant {
    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            SignificanceVariant::PaperExponential { alpha } => format!("paper α={alpha}"),
            SignificanceVariant::FrequencyRatio => "frequency c/k".to_owned(),
            SignificanceVariant::Ewma { lambda } => format!("EWMA λ={lambda}"),
        }
    }

    fn validate(&self) {
        match self {
            SignificanceVariant::PaperExponential { alpha } => {
                assert!(alpha.is_finite() && *alpha > 1.0, "alpha must be > 1");
            }
            SignificanceVariant::FrequencyRatio => {}
            SignificanceVariant::Ewma { lambda } => {
                assert!(
                    lambda.is_finite() && *lambda > 0.0 && *lambda <= 1.0,
                    "lambda must be in (0, 1]"
                );
            }
        }
    }
}

/// Per-item state: occurrence count and EWMA value.
#[derive(Debug, Clone, Copy, Default)]
struct ItemState {
    c: u32,
    ewma: f64,
}

/// Incremental tracker generic over the significance variant.
#[derive(Debug, Clone)]
pub struct VariantTracker {
    variant: SignificanceVariant,
    items: BTreeMap<ItemId, ItemState>,
    windows: u32,
}

impl VariantTracker {
    /// Fresh tracker.
    pub fn new(variant: SignificanceVariant) -> VariantTracker {
        variant.validate();
        VariantTracker {
            variant,
            items: BTreeMap::new(),
            windows: 0,
        }
    }

    /// `S(p, k)` under the configured variant.
    pub fn significance(&self, item: ItemId) -> f64 {
        let Some(state) = self.items.get(&item) else {
            return 0.0;
        };
        if state.c == 0 {
            return 0.0;
        }
        match self.variant {
            SignificanceVariant::PaperExponential { alpha } => {
                let exponent = 2 * state.c as i64 - self.windows as i64;
                alpha.powi(exponent.clamp(-1_000, 1_000) as i32)
            }
            SignificanceVariant::FrequencyRatio => state.c as f64 / self.windows.max(1) as f64,
            SignificanceVariant::Ewma { .. } => state.ewma,
        }
    }

    /// `Σ_p S(p,k)` over tracked items, in ascending item order.
    pub fn total_significance(&self) -> f64 {
        self.items.keys().map(|&item| self.significance(item)).sum()
    }

    /// `Σ_{p∈u} S(p,k)`.
    pub fn present_significance(&self, u: &Basket) -> f64 {
        u.iter().map(|item| self.significance(item)).sum()
    }

    /// Fold in window `k`'s item set (call after scoring).
    pub fn observe_window(&mut self, u: &Basket) {
        let lambda = match self.variant {
            SignificanceVariant::Ewma { lambda } => lambda,
            _ => 0.0,
        };
        // Decay every tracked item, then credit the present ones.
        if lambda > 0.0 {
            for state in self.items.values_mut() {
                state.ewma *= 1.0 - lambda;
            }
        }
        for item in u.iter() {
            let state = self.items.entry(item).or_default();
            state.c += 1;
            if lambda > 0.0 {
                state.ewma += lambda;
            }
        }
        self.windows += 1;
    }
}

/// Stability series of one customer under any significance variant.
///
/// Identical to [`crate::stability::stability_series`] when the variant is
/// [`SignificanceVariant::PaperExponential`] (tested).
pub fn stability_series_variant(
    windows: &CustomerWindows,
    variant: SignificanceVariant,
) -> Vec<StabilityPoint> {
    let mut tracker = VariantTracker::new(variant);
    let mut out = Vec::with_capacity(windows.num_windows());
    for (k, u) in windows.baskets.iter().enumerate() {
        let total = tracker.total_significance();
        let present = tracker.present_significance(u);
        out.push(StabilityPoint {
            window: WindowIndex::new(k as u32),
            value: if total > 0.0 { present / total } else { 1.0 },
            present_significance: present,
            total_significance: total,
        });
        tracker.observe_window(u);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StabilityParams;
    use crate::stability::stability_series;
    use attrition_store::WindowSpec;
    use attrition_types::{Cents, CustomerId, Date};
    use attrition_util::check::{forall, gen_vec};

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
    fn paper_variant_matches_reference_implementation() {
        let w = windows_of(&[&[1, 2], &[1], &[2, 3], &[], &[1, 2, 3], &[2]]);
        let reference = stability_series(&w, StabilityParams::PAPER);
        let variant =
            stability_series_variant(&w, SignificanceVariant::PaperExponential { alpha: 2.0 });
        assert_eq!(reference.len(), variant.len());
        for (a, b) in reference.iter().zip(&variant) {
            assert!(
                (a.value - b.value).abs() < 1e-12,
                "window {}: {} vs {}",
                a.window,
                a.value,
                b.value
            );
        }
    }

    #[test]
    fn frequency_ratio_values() {
        let mut t = VariantTracker::new(SignificanceVariant::FrequencyRatio);
        t.observe_window(&Basket::from_raw(&[1, 2]));
        t.observe_window(&Basket::from_raw(&[1]));
        // k=2: S(1) = 2/2 = 1, S(2) = 1/2.
        assert_eq!(t.significance(ItemId::new(1)), 1.0);
        assert_eq!(t.significance(ItemId::new(2)), 0.5);
        assert_eq!(t.significance(ItemId::new(9)), 0.0);
        assert!((t.total_significance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ewma_decays_and_credits() {
        let mut t = VariantTracker::new(SignificanceVariant::Ewma { lambda: 0.5 });
        t.observe_window(&Basket::from_raw(&[1]));
        assert_eq!(t.significance(ItemId::new(1)), 0.5);
        t.observe_window(&Basket::from_raw(&[1]));
        assert_eq!(t.significance(ItemId::new(1)), 0.75);
        t.observe_window(&Basket::from_raw(&[]));
        assert_eq!(t.significance(ItemId::new(1)), 0.375);
    }

    #[test]
    fn labels_render() {
        assert_eq!(
            SignificanceVariant::PaperExponential { alpha: 2.0 }.label(),
            "paper α=2"
        );
        assert_eq!(SignificanceVariant::FrequencyRatio.label(), "frequency c/k");
        assert_eq!(
            SignificanceVariant::Ewma { lambda: 0.3 }.label(),
            "EWMA λ=0.3"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be > 1")]
    fn invalid_alpha_panics() {
        VariantTracker::new(SignificanceVariant::PaperExponential { alpha: 1.0 });
    }

    #[test]
    #[should_panic(expected = "lambda must be in")]
    fn invalid_lambda_panics() {
        VariantTracker::new(SignificanceVariant::Ewma { lambda: 0.0 });
    }

    /// Every variant keeps stability within [0, 1].
    #[test]
    fn all_variants_bounded() {
        forall(
            256,
            |rng| {
                (
                    gen_vec(rng, 1, 11, |r| {
                        gen_vec(r, 0, 4, |rr| rr.u64_below(8) as u32)
                    }),
                    rng.usize_below(3),
                )
            },
            |(sets, which)| {
                let refs: Vec<&[u32]> = sets.iter().map(|v| v.as_slice()).collect();
                let w = windows_of(&refs);
                let variant = match which {
                    0 => SignificanceVariant::PaperExponential { alpha: 2.0 },
                    1 => SignificanceVariant::FrequencyRatio,
                    _ => SignificanceVariant::Ewma { lambda: 0.3 },
                };
                for p in stability_series_variant(&w, variant) {
                    assert!((0.0..=1.0 + 1e-9).contains(&p.value), "value {}", p.value);
                }
            },
        );
    }

    /// A perfectly repeating repertoire scores 1 under every variant.
    #[test]
    fn constant_repertoire_all_variants() {
        forall(
            128,
            |rng| (1 + rng.usize_below(14), rng.usize_below(3)),
            |&(n, which)| {
                let w = windows_of(&vec![[1u32, 2].as_slice(); n]);
                let variant = match which {
                    0 => SignificanceVariant::PaperExponential { alpha: 2.0 },
                    1 => SignificanceVariant::FrequencyRatio,
                    _ => SignificanceVariant::Ewma { lambda: 0.5 },
                };
                for p in stability_series_variant(&w, variant) {
                    assert!((p.value - 1.0).abs() < 1e-12);
                }
            },
        );
    }
}
