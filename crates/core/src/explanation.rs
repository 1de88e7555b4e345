//! Attrition explanation.
//!
//! "When the stability of some customer decreases, we can identify which
//! product mainly caused this decrease. This product is defined as
//! `argmax_{p∉u_k} S(p,k)` … This attrition explanation can be easily
//! extended to a set of products." — the actionable half of the model:
//! the retailer targets marketing at the significant products the
//! customer stopped buying.
//!
//! [`WindowExplanation`] is that ranked set for one window;
//! [`aggregate_explanations`] rolls explanations up across a population
//! into per-item attrition drivers (the paper's stated future work:
//! characterizing the significant products that explain defection).

use attrition_types::{ItemId, Taxonomy, WindowIndex};
use std::collections::HashMap;

/// One product missing from a window, with its significance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LostProduct {
    /// The missing product.
    pub item: ItemId,
    /// `S(p, k)` — how established the product was.
    pub significance: f64,
    /// Its share of the customer's total significance (how much of the
    /// stability drop this single product accounts for).
    pub share: f64,
}

/// The ranked lost-product set of one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowExplanation {
    /// The window (`k`).
    pub window: WindowIndex,
    /// Missing tracked products, most significant first.
    pub lost: Vec<LostProduct>,
}

impl WindowExplanation {
    /// The paper's `argmax_{p∉u_k} S(p,k)`: the single product most
    /// responsible for the drop, if any product is missing at all.
    pub fn primary(&self) -> Option<&LostProduct> {
        self.lost.first()
    }

    /// Lost products whose share exceeds `min_share` — the "set of
    /// products" extension with a materiality floor.
    pub fn material(&self, min_share: f64) -> impl Iterator<Item = &LostProduct> {
        self.lost.iter().filter(move |l| l.share >= min_share)
    }

    /// Render with product names from a taxonomy: `"coffee (share 32%)"`.
    pub fn describe(&self, taxonomy: &Taxonomy) -> Vec<String> {
        self.lost
            .iter()
            .map(|l| {
                let name = taxonomy
                    .product(l.item)
                    .map(|p| p.name.clone())
                    .unwrap_or_else(|_| l.item.to_string());
                format!("{name} (share {:.0}%)", l.share * 100.0)
            })
            .collect()
    }
}

/// Significance-descending order with ties broken by item id — a strict
/// total order on any lost set (items are unique): the order of the close
/// step's top-K list.
pub(crate) fn rank_lost(a: &LostProduct, b: &LostProduct) -> std::cmp::Ordering {
    b.significance
        .total_cmp(&a.significance)
        .then(a.item.cmp(&b.item))
}

/// A population-level attrition driver: an item, how many customers'
/// explanations it appears in, and the cumulative significance share it
/// accounted for.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentDriver {
    /// The item (or segment, at segment granularity).
    pub item: ItemId,
    /// Number of (customer, window) explanations it appears in.
    pub occurrences: usize,
    /// Sum of its shares across those explanations.
    pub total_share: f64,
}

/// Aggregate per-customer window explanations into ranked population-level
/// drivers, counting only losses with share at least `min_share`.
///
/// Feed the explanations of the windows of interest (e.g. every window at
/// or after the detected onset for each defecting customer).
pub fn aggregate_explanations<'a>(
    explanations: impl IntoIterator<Item = &'a WindowExplanation>,
    min_share: f64,
) -> Vec<SegmentDriver> {
    let mut by_item: HashMap<ItemId, (usize, f64)> = HashMap::new();
    for expl in explanations {
        for lost in expl.material(min_share) {
            let entry = by_item.entry(lost.item).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += lost.share;
        }
    }
    let mut drivers: Vec<SegmentDriver> = by_item
        .into_iter()
        .map(|(item, (occurrences, total_share))| SegmentDriver {
            item,
            occurrences,
            total_share,
        })
        .collect();
    drivers.sort_by(|a, b| {
        b.total_share
            .total_cmp(&a.total_share)
            .then(a.item.cmp(&b.item))
    });
    drivers
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_types::{Cents, TaxonomyBuilder};

    fn lost(raw: u32, sig: f64, share: f64) -> LostProduct {
        LostProduct {
            item: ItemId::new(raw),
            significance: sig,
            share,
        }
    }

    fn expl(window: u32, lost_products: Vec<LostProduct>) -> WindowExplanation {
        WindowExplanation {
            window: WindowIndex::new(window),
            lost: lost_products,
        }
    }

    #[test]
    fn primary_is_first() {
        let e = expl(3, vec![lost(1, 8.0, 0.4), lost(2, 2.0, 0.1)]);
        assert_eq!(e.primary().unwrap().item, ItemId::new(1));
        assert!(expl(0, vec![]).primary().is_none());
    }

    #[test]
    fn material_filters_by_share() {
        let e = expl(
            3,
            vec![lost(1, 8.0, 0.4), lost(2, 2.0, 0.1), lost(3, 1.0, 0.05)],
        );
        let material: Vec<u32> = e.material(0.1).map(|l| l.item.raw()).collect();
        assert_eq!(material, vec![1, 2]);
    }

    #[test]
    fn describe_uses_names() {
        let mut t = TaxonomyBuilder::new();
        let seg = t.add_segment("coffee");
        t.add_product(seg, "arabica", Cents(400)).unwrap();
        let tax = t.build();
        let e = expl(1, vec![lost(0, 4.0, 0.321), lost(99, 1.0, 0.1)]);
        let lines = e.describe(&tax);
        assert_eq!(lines[0], "arabica (share 32%)");
        // Unknown item falls back to the id.
        assert_eq!(lines[1], "i99 (share 10%)");
    }

    #[test]
    fn aggregation_counts_and_ranks() {
        let explanations = [
            expl(5, vec![lost(1, 8.0, 0.5), lost(2, 2.0, 0.2)]),
            expl(6, vec![lost(1, 4.0, 0.3)]),
            expl(5, vec![lost(2, 2.0, 0.25), lost(3, 1.0, 0.01)]),
        ];
        let drivers = aggregate_explanations(explanations.iter(), 0.05);
        // Item 3 filtered by min_share.
        assert_eq!(drivers.len(), 2);
        assert_eq!(drivers[0].item, ItemId::new(1));
        assert_eq!(drivers[0].occurrences, 2);
        assert!((drivers[0].total_share - 0.8).abs() < 1e-12);
        assert_eq!(drivers[1].item, ItemId::new(2));
        assert!((drivers[1].total_share - 0.45).abs() < 1e-12);
    }

    #[test]
    fn aggregation_empty() {
        let drivers = aggregate_explanations(std::iter::empty(), 0.0);
        assert!(drivers.is_empty());
    }

    #[test]
    fn aggregation_tie_broken_by_item_id() {
        let explanations = [
            expl(1, vec![lost(9, 1.0, 0.3)]),
            expl(1, vec![lost(4, 1.0, 0.3)]),
        ];
        let drivers = aggregate_explanations(explanations.iter(), 0.0);
        assert_eq!(drivers[0].item, ItemId::new(4));
        assert_eq!(drivers[1].item, ItemId::new(9));
    }
}
