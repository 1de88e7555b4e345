//! Projection of product-level receipts onto taxonomy segments.
//!
//! The paper abstracts its 4M products into 3,388 segments before modeling
//! ("A taxonomy is also provided that enables abstracting products in
//! segments"). [`project_to_segments`] rewrites a store so that each
//! basket contains segment ids (as `ItemId`s) instead of product ids —
//! after which every downstream model runs unchanged at segment
//! granularity. The granularity ablation compares both levels.

use crate::{ReceiptStore, ReceiptStoreBuilder, StoreError};
use attrition_types::{ItemId, Taxonomy};

/// Rewrite every basket of `store`, replacing each product id by its
/// segment id (re-encoded as an [`ItemId`]). Duplicate segments within a
/// basket collapse (baskets are sets). Receipt dates, customers and totals
/// are preserved.
///
/// Fails with [`StoreError::Type`] if a basket references a product the
/// taxonomy does not know.
pub fn project_to_segments(
    store: &ReceiptStore,
    taxonomy: &Taxonomy,
) -> Result<ReceiptStore, StoreError> {
    let mut builder = ReceiptStoreBuilder::with_capacity(store.num_receipts());
    for r in store.receipts() {
        for &item in r.items {
            builder.push_item(ItemId::new(taxonomy.segment_of(item)?.raw()));
        }
        builder.finish_row(r.customer, r.date, r.total);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_types::{Basket, Cents, CustomerId, Date, Receipt, TaxonomyBuilder};

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::from_ymd(y, m, day).unwrap()
    }

    fn taxonomy() -> Taxonomy {
        let mut t = TaxonomyBuilder::new();
        let coffee = t.add_segment("coffee");
        let milk = t.add_segment("milk");
        t.add_product(coffee, "arabica", Cents(400)).unwrap(); // item 0
        t.add_product(coffee, "robusta", Cents(300)).unwrap(); // item 1
        t.add_product(milk, "whole", Cents(100)).unwrap(); // item 2
        t.build()
    }

    fn store() -> ReceiptStore {
        let mut b = ReceiptStoreBuilder::new();
        b.push(Receipt::new(
            CustomerId::new(1),
            d(2012, 5, 2),
            Basket::from_raw(&[0, 1, 2]),
            Cents(800),
        ));
        b.push(Receipt::new(
            CustomerId::new(1),
            d(2012, 5, 9),
            Basket::from_raw(&[1]),
            Cents(300),
        ));
        b.build()
    }

    #[test]
    fn products_collapse_to_segments() {
        let projected = project_to_segments(&store(), &taxonomy()).unwrap();
        let first = projected.receipt(0).unwrap();
        // Items 0 and 1 are both "coffee" (segment 0); item 2 is milk (1).
        assert_eq!(first.items, &[ItemId::new(0), ItemId::new(1)]);
        let second = projected.receipt(1).unwrap();
        assert_eq!(second.items, &[ItemId::new(0)]);
    }

    #[test]
    fn metadata_preserved() {
        let projected = project_to_segments(&store(), &taxonomy()).unwrap();
        assert_eq!(projected.num_receipts(), 2);
        let r = projected.receipt(0).unwrap();
        assert_eq!(r.customer, CustomerId::new(1));
        assert_eq!(r.date, d(2012, 5, 2));
        assert_eq!(r.total, Cents(800));
    }

    #[test]
    fn unknown_product_fails() {
        let mut b = ReceiptStoreBuilder::new();
        b.push(Receipt::new(
            CustomerId::new(1),
            d(2012, 5, 2),
            Basket::from_raw(&[99]),
            Cents(100),
        ));
        let err = project_to_segments(&b.build(), &taxonomy()).unwrap_err();
        assert!(matches!(err, StoreError::Type(_)));
    }

    #[test]
    fn empty_store_projects_to_empty() {
        let s = ReceiptStoreBuilder::new().build();
        let projected = project_to_segments(&s, &taxonomy()).unwrap();
        assert!(projected.is_empty());
    }
}
