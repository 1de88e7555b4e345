//! Declarative receipt queries.
//!
//! Composable filter over a [`ReceiptStore`]: date range, customer set,
//! item presence, basket size, spend. Evaluation is a single scan that
//! prunes to the matching customers' row ranges when a customer filter
//! is present (the store is customer-sorted, so that turns a full scan
//! into a handful of slice walks). Results stream as
//! [`ReceiptRef`](crate::ReceiptRef)s or materialize into a new store.

use crate::{ReceiptRef, ReceiptStore, ReceiptStoreBuilder};
use attrition_types::{Cents, CustomerId, Date, ItemId};
use std::collections::BTreeSet;

/// A composable receipt filter. All set conditions must hold (AND).
///
/// ```
/// use attrition_store::{Query, ReceiptStoreBuilder};
/// use attrition_types::{Basket, Cents, CustomerId, Date, Receipt};
///
/// let mut builder = ReceiptStoreBuilder::new();
/// builder.push(Receipt::new(
///     CustomerId::new(7),
///     Date::from_ymd(2012, 6, 3).unwrap(),
///     Basket::from_raw(&[1, 2, 3]),
///     Cents(1250),
/// ));
/// let store = builder.build();
///
/// let big_june_baskets = Query::new()
///     .from(Date::from_ymd(2012, 6, 1).unwrap())
///     .until(Date::from_ymd(2012, 7, 1).unwrap())
///     .min_basket_size(3);
/// assert_eq!(big_june_baskets.count(&store), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Query {
    customers: Option<BTreeSet<CustomerId>>,
    from: Option<Date>,
    until: Option<Date>,
    contains_item: Option<ItemId>,
    min_basket_size: Option<usize>,
    min_total: Option<Cents>,
}

impl Query {
    /// Match everything.
    pub fn new() -> Query {
        Query::default()
    }

    /// Restrict to the given customers.
    pub fn customers(mut self, ids: impl IntoIterator<Item = CustomerId>) -> Query {
        self.customers = Some(ids.into_iter().collect());
        self
    }

    /// Receipts dated `from` or later (inclusive).
    pub fn from(mut self, from: Date) -> Query {
        self.from = Some(from);
        self
    }

    /// Receipts dated strictly before `until` (exclusive).
    pub fn until(mut self, until: Date) -> Query {
        self.until = Some(until);
        self
    }

    /// Baskets containing the item.
    pub fn contains_item(mut self, item: ItemId) -> Query {
        self.contains_item = Some(item);
        self
    }

    /// Baskets with at least `n` distinct items.
    pub fn min_basket_size(mut self, n: usize) -> Query {
        self.min_basket_size = Some(n);
        self
    }

    /// Receipts totalling at least `cents`.
    pub fn min_total(mut self, cents: Cents) -> Query {
        self.min_total = Some(cents);
        self
    }

    fn matches(&self, r: &ReceiptRef<'_>) -> bool {
        if let Some(from) = self.from {
            if r.date < from {
                return false;
            }
        }
        if let Some(until) = self.until {
            if r.date >= until {
                return false;
            }
        }
        if let Some(item) = self.contains_item {
            if r.items.binary_search(&item).is_err() {
                return false;
            }
        }
        if let Some(n) = self.min_basket_size {
            if r.items.len() < n {
                return false;
            }
        }
        if let Some(min) = self.min_total {
            if r.total < min {
                return false;
            }
        }
        true
    }

    /// Stream the matching receipts in `(customer, date)` order.
    pub fn scan<'a>(&'a self, store: &'a ReceiptStore) -> impl Iterator<Item = ReceiptRef<'a>> {
        // With a customer filter, walk only those customers' row ranges.
        #[allow(clippy::single_range_in_vec_init)] // one Range element intended
        let rows: Vec<std::ops::Range<usize>> = match &self.customers {
            Some(ids) => ids
                .iter()
                .filter_map(|&id| store.customer_rows(id).ok())
                .collect(),
            None => vec![0..store.num_receipts()],
        };
        rows.into_iter()
            .flatten()
            .map(move |row| store.receipt(row).expect("row within range"))
            .filter(move |r| self.matches(r))
    }

    /// Count the matching receipts.
    pub fn count(&self, store: &ReceiptStore) -> usize {
        self.scan(store).count()
    }

    /// Materialize the matching receipts into a new store.
    pub fn materialize(&self, store: &ReceiptStore) -> ReceiptStore {
        let mut builder = ReceiptStoreBuilder::new();
        for r in self.scan(store) {
            builder.push_row(r.customer, r.date, r.total, r.items);
        }
        builder.build()
    }

    /// Total spend across matching receipts.
    pub fn total_spend(&self, store: &ReceiptStore) -> Cents {
        self.scan(store).map(|r| r.total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_types::{Basket, Receipt};

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::from_ymd(y, m, day).unwrap()
    }

    fn store() -> ReceiptStore {
        let mut b = ReceiptStoreBuilder::new();
        b.push(Receipt::new(
            CustomerId::new(1),
            d(2012, 5, 2),
            Basket::from_raw(&[1, 2]),
            Cents(900),
        ));
        b.push(Receipt::new(
            CustomerId::new(1),
            d(2012, 6, 20),
            Basket::from_raw(&[2, 3, 4]),
            Cents(1500),
        ));
        b.push(Receipt::new(
            CustomerId::new(2),
            d(2012, 5, 15),
            Basket::from_raw(&[5]),
            Cents(300),
        ));
        b.push(Receipt::new(
            CustomerId::new(3),
            d(2012, 7, 1),
            Basket::from_raw(&[1]),
            Cents(50),
        ));
        b.build()
    }

    #[test]
    fn unfiltered_matches_all() {
        let s = store();
        assert_eq!(Query::new().count(&s), 4);
        assert_eq!(Query::new().total_spend(&s), Cents(2750));
    }

    #[test]
    fn date_range_half_open() {
        let s = store();
        let q = Query::new().from(d(2012, 5, 15)).until(d(2012, 7, 1));
        let dates: Vec<Date> = q.scan(&s).map(|r| r.date).collect();
        assert_eq!(dates, vec![d(2012, 6, 20), d(2012, 5, 15)]);
    }

    #[test]
    fn customer_filter_prunes() {
        let s = store();
        let q = Query::new().customers([CustomerId::new(1), CustomerId::new(3)]);
        assert_eq!(q.count(&s), 3);
        // Unknown customers are simply skipped.
        let q2 = Query::new().customers([CustomerId::new(99)]);
        assert_eq!(q2.count(&s), 0);
    }

    #[test]
    fn item_filter() {
        let s = store();
        let q = Query::new().contains_item(ItemId::new(1));
        let customers: Vec<u64> = q.scan(&s).map(|r| r.customer.raw()).collect();
        assert_eq!(customers, vec![1, 3]);
    }

    #[test]
    fn basket_size_and_total() {
        let s = store();
        assert_eq!(Query::new().min_basket_size(2).count(&s), 2);
        assert_eq!(Query::new().min_total(Cents(900)).count(&s), 2);
    }

    #[test]
    fn conjunction() {
        let s = store();
        let q = Query::new()
            .customers([CustomerId::new(1)])
            .from(d(2012, 6, 1))
            .min_basket_size(3);
        let hits: Vec<Date> = q.scan(&s).map(|r| r.date).collect();
        assert_eq!(hits, vec![d(2012, 6, 20)]);
    }

    #[test]
    fn materialize_preserves_invariants() {
        let s = store();
        let sub = Query::new().from(d(2012, 6, 1)).materialize(&s);
        assert_eq!(sub.num_receipts(), 2);
        assert_eq!(sub.num_customers(), 2);
        // The materialized store is itself queryable.
        assert_eq!(Query::new().contains_item(ItemId::new(1)).count(&sub), 1);
    }

    #[test]
    fn empty_result_materializes_empty() {
        let s = store();
        let sub = Query::new().min_total(Cents(10_000)).materialize(&s);
        assert!(sub.is_empty());
    }
}
