//! Columnar receipt storage.
//!
//! Receipts are stored column-wise (customer, date, total, basket offsets,
//! flattened item buffer) and sorted by `(customer, date)`, so the paper's
//! per-customer purchase list `D_i` is a contiguous row range located with
//! one binary search, and full scans touch only the columns they need.
//!
//! The store is immutable once built; [`ReceiptStoreBuilder`] accumulates
//! receipts in any order, straight into the same columns, and sorts on
//! `build` unless they arrived in order.

use crate::StoreError;
use attrition_types::{Basket, Cents, CustomerId, Date, ItemId, Receipt};
use std::ops::Range;

/// A borrowed view of one stored receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiptRef<'a> {
    /// The purchasing customer.
    pub customer: CustomerId,
    /// Trip date.
    pub date: Date,
    /// Total paid.
    pub total: Cents,
    /// Sorted distinct items of the basket.
    pub items: &'a [ItemId],
}

impl ReceiptRef<'_> {
    /// Materialize into an owned [`Receipt`].
    pub fn to_owned(&self) -> Receipt {
        Receipt::new(
            self.customer,
            self.date,
            Basket::new(self.items.to_vec()),
            self.total,
        )
    }
}

/// Immutable, columnar, `(customer, date)`-sorted receipt store.
#[derive(Debug, Clone, Default)]
pub struct ReceiptStore {
    customers: Vec<CustomerId>,
    dates: Vec<Date>,
    totals: Vec<Cents>,
    /// `basket_offsets[r]..basket_offsets[r+1]` indexes `items` for row `r`.
    basket_offsets: Vec<u32>,
    items: Vec<ItemId>,
    /// One entry per distinct customer: `(id, row range)`, sorted by id.
    customer_index: Vec<(CustomerId, Range<u32>)>,
}

impl ReceiptStore {
    /// Number of receipts.
    #[inline]
    pub fn num_receipts(&self) -> usize {
        self.customers.len()
    }

    /// True when the store holds no receipts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.customers.is_empty()
    }

    /// Number of distinct customers.
    #[inline]
    pub fn num_customers(&self) -> usize {
        self.customer_index.len()
    }

    /// Total number of item occurrences across all baskets.
    #[inline]
    pub fn num_item_occurrences(&self) -> usize {
        self.items.len()
    }

    /// The receipt at a row.
    pub fn receipt(&self, row: usize) -> Result<ReceiptRef<'_>, StoreError> {
        if row >= self.customers.len() {
            return Err(StoreError::RowOutOfRange {
                row,
                len: self.customers.len(),
            });
        }
        let lo = self.basket_offsets[row] as usize;
        let hi = self.basket_offsets[row + 1] as usize;
        Ok(ReceiptRef {
            customer: self.customers[row],
            date: self.dates[row],
            total: self.totals[row],
            items: &self.items[lo..hi],
        })
    }

    /// Iterate over all receipts in `(customer, date)` order.
    pub fn receipts(&self) -> impl Iterator<Item = ReceiptRef<'_>> {
        (0..self.num_receipts()).map(move |r| self.receipt(r).expect("row in range"))
    }

    /// The distinct customers, ascending.
    pub fn customers(&self) -> impl Iterator<Item = CustomerId> + '_ {
        self.customer_index.iter().map(|(id, _)| *id)
    }

    /// Row range of one customer's receipts (chronological), or an error if
    /// the customer has none.
    pub fn customer_rows(&self, customer: CustomerId) -> Result<Range<usize>, StoreError> {
        self.customer_index
            .binary_search_by_key(&customer, |(id, _)| *id)
            .map(|pos| {
                let r = &self.customer_index[pos].1;
                r.start as usize..r.end as usize
            })
            .map_err(|_| StoreError::UnknownCustomer(customer.raw()))
    }

    /// True if the customer has at least one receipt.
    pub fn contains_customer(&self, customer: CustomerId) -> bool {
        self.customer_index
            .binary_search_by_key(&customer, |(id, _)| *id)
            .is_ok()
    }

    /// Chronological receipts of one customer (`D_i` in the paper).
    pub fn customer_receipts(
        &self,
        customer: CustomerId,
    ) -> Result<impl Iterator<Item = ReceiptRef<'_>>, StoreError> {
        let rows = self.customer_rows(customer)?;
        Ok(rows.map(move |r| self.receipt(r).expect("row in range")))
    }

    /// Earliest and latest receipt dates, or `None` when empty.
    pub fn date_range(&self) -> Option<(Date, Date)> {
        // Dates are sorted only within a customer, so scan.
        let mut it = self.dates.iter();
        let first = *it.next()?;
        let (mut lo, mut hi) = (first, first);
        for &d in it {
            lo = lo.min(d);
            hi = hi.max(d);
        }
        Some((lo, hi))
    }

    /// Receipts (any customer) with `from <= date < to`.
    pub fn scan_date_range(&self, from: Date, to: Date) -> impl Iterator<Item = ReceiptRef<'_>> {
        self.receipts()
            .filter(move |r| r.date >= from && r.date < to)
    }

    /// The largest item id present, or `None` when no items were stored.
    /// Useful to size dense per-item arrays.
    pub fn max_item_id(&self) -> Option<ItemId> {
        self.items.iter().copied().max()
    }

    /// Approximate resident bytes of the columnar payload (not counting
    /// allocator overhead). For capacity planning and the scalability
    /// experiment.
    pub fn payload_bytes(&self) -> usize {
        self.customers.len() * std::mem::size_of::<CustomerId>()
            + self.dates.len() * std::mem::size_of::<Date>()
            + self.totals.len() * std::mem::size_of::<Cents>()
            + self.basket_offsets.len() * std::mem::size_of::<u32>()
            + self.items.len() * std::mem::size_of::<ItemId>()
            + self.customer_index.len() * std::mem::size_of::<(CustomerId, Range<u32>)>()
    }
}

/// Accumulates receipts (in any order) and builds a sorted [`ReceiptStore`].
///
/// The builder holds the store's own columns plus one flat item arena:
/// a row is appended with [`push_row`](ReceiptStoreBuilder::push_row), or
/// item by item with [`push_item`](ReceiptStoreBuilder::push_item) and
/// sealed by [`finish_row`](ReceiptStoreBuilder::finish_row), which sorts
/// and deduplicates the row's items in place. No per-receipt allocation
/// happens on either path.
#[derive(Debug)]
pub struct ReceiptStoreBuilder {
    customers: Vec<CustomerId>,
    dates: Vec<Date>,
    totals: Vec<Cents>,
    /// `basket_offsets[r]..basket_offsets[r+1]` indexes `items` for row
    /// `r`; items past the last offset belong to the row being assembled.
    basket_offsets: Vec<u32>,
    items: Vec<ItemId>,
    /// True while every row so far arrived in `(customer, date)` order.
    in_order: bool,
}

impl Default for ReceiptStoreBuilder {
    fn default() -> ReceiptStoreBuilder {
        ReceiptStoreBuilder::with_capacity(0)
    }
}

impl ReceiptStoreBuilder {
    /// Create an empty builder.
    pub fn new() -> ReceiptStoreBuilder {
        ReceiptStoreBuilder::default()
    }

    /// Create a builder expecting roughly `n` receipts.
    pub fn with_capacity(n: usize) -> ReceiptStoreBuilder {
        let mut basket_offsets = Vec::with_capacity(n + 1);
        basket_offsets.push(0);
        ReceiptStoreBuilder {
            customers: Vec::with_capacity(n),
            dates: Vec::with_capacity(n),
            totals: Vec::with_capacity(n),
            basket_offsets,
            items: Vec::new(),
            in_order: true,
        }
    }

    /// Add one receipt.
    pub fn push(&mut self, receipt: Receipt) -> &mut ReceiptStoreBuilder {
        self.push_row(
            receipt.customer,
            receipt.date,
            receipt.total,
            receipt.basket.items(),
        )
    }

    /// Add one receipt from its fields; `items` may be unsorted and hold
    /// duplicates.
    pub fn push_row(
        &mut self,
        customer: CustomerId,
        date: Date,
        total: Cents,
        items: &[ItemId],
    ) -> &mut ReceiptStoreBuilder {
        self.items.extend_from_slice(items);
        self.finish_row(customer, date, total)
    }

    /// Append one item to the row being assembled.
    #[inline]
    pub fn push_item(&mut self, item: ItemId) {
        self.items.push(item);
    }

    /// Drop the items of the row being assembled.
    pub fn discard_row(&mut self) {
        let start = *self.basket_offsets.last().expect("offsets start at 0") as usize;
        self.items.truncate(start);
    }

    /// Seal the items pushed since the last row as one receipt: they are
    /// sorted and deduplicated in place.
    pub fn finish_row(
        &mut self,
        customer: CustomerId,
        date: Date,
        total: Cents,
    ) -> &mut ReceiptStoreBuilder {
        let start = *self.basket_offsets.last().expect("offsets start at 0") as usize;
        let row = &mut self.items[start..];
        if !row.windows(2).all(|w| w[0] < w[1]) {
            if !row.windows(2).all(|w| w[0] <= w[1]) {
                row.sort_unstable();
            }
            // Sorted, so a duplicate equals the item before it.
            let mut kept = 1;
            for i in 1..row.len() {
                let item = row[i];
                let fresh = item != row[i - 1];
                row[kept] = item;
                kept += usize::from(fresh);
            }
            self.items.truncate(start + kept);
        }
        if let (Some(&c), Some(&d)) = (self.customers.last(), self.dates.last()) {
            self.in_order &= (c, d) <= (customer, date);
        }
        self.customers.push(customer);
        self.dates.push(date);
        self.totals.push(total);
        let end = u32::try_from(self.items.len()).expect("item arena fits u32 offsets");
        self.basket_offsets.push(end);
        self
    }

    /// Number of receipts accumulated so far.
    pub fn len(&self) -> usize {
        self.customers.len()
    }

    /// True when no receipts have been added.
    pub fn is_empty(&self) -> bool {
        self.customers.is_empty()
    }

    /// Sort by `(customer, date)` and freeze into a store.
    ///
    /// Receipts of one customer on the same date keep their insertion
    /// order (stable sort) — the dataset has day-resolution timestamps, so
    /// same-day trips are legitimate. Rows that arrived already in order
    /// are taken as they are; items pushed after the last `finish_row`
    /// are dropped.
    pub fn build(mut self) -> ReceiptStore {
        self.discard_row();
        if !self.in_order {
            self.sort_rows();
        }
        let mut customer_index = Vec::new();
        let mut start = 0;
        for row in 1..=self.customers.len() {
            if row == self.customers.len() || self.customers[row] != self.customers[start] {
                customer_index.push((self.customers[start], start as u32..row as u32));
                start = row;
            }
        }
        ReceiptStore {
            customers: self.customers,
            dates: self.dates,
            totals: self.totals,
            basket_offsets: self.basket_offsets,
            items: self.items,
            customer_index,
        }
    }

    /// Permute every column into `(customer, date, insertion)` order.
    fn sort_rows(&mut self) {
        // One key per row; the row index as the last component makes the
        // unstable sort return exactly the stable order.
        let mut keys: Vec<u128> = (0..self.customers.len())
            .map(|row| {
                let date = (self.dates[row].days_since_epoch() as u32) ^ (1 << 31);
                (self.customers[row].raw() as u128) << 64 | (date as u128) << 32 | row as u128
            })
            .collect();
        keys.sort_unstable();
        let order = keys.iter().map(|&key| key as u32 as usize);
        let mut items = Vec::with_capacity(self.items.len());
        let mut offsets = Vec::with_capacity(self.basket_offsets.len());
        offsets.push(0);
        for row in order.clone() {
            let lo = self.basket_offsets[row] as usize;
            let hi = self.basket_offsets[row + 1] as usize;
            items.extend_from_slice(&self.items[lo..hi]);
            offsets.push(items.len() as u32);
        }
        self.customers = order.clone().map(|row| self.customers[row]).collect();
        self.dates = order.clone().map(|row| self.dates[row]).collect();
        self.totals = order.map(|row| self.totals[row]).collect();
        self.basket_offsets = offsets;
        self.items = items;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::from_ymd(y, m, day).unwrap()
    }

    fn receipt(cust: u64, date: Date, items: &[u32], cents: i64) -> Receipt {
        Receipt::new(
            CustomerId::new(cust),
            date,
            Basket::from_raw(items),
            Cents(cents),
        )
    }

    fn sample() -> ReceiptStore {
        let mut b = ReceiptStoreBuilder::new();
        // Deliberately unsorted input.
        b.push(receipt(2, d(2012, 6, 1), &[5, 6], 700));
        b.push(receipt(1, d(2012, 5, 20), &[1, 2, 3], 1500));
        b.push(receipt(1, d(2012, 5, 2), &[1, 2], 900));
        b.push(receipt(2, d(2012, 5, 15), &[5], 300));
        b.push(receipt(1, d(2012, 7, 4), &[2, 4], 800));
        b.build()
    }

    #[test]
    fn sorted_by_customer_then_date() {
        let s = sample();
        let rows: Vec<(u64, Date)> = s.receipts().map(|r| (r.customer.raw(), r.date)).collect();
        assert_eq!(
            rows,
            vec![
                (1, d(2012, 5, 2)),
                (1, d(2012, 5, 20)),
                (1, d(2012, 7, 4)),
                (2, d(2012, 5, 15)),
                (2, d(2012, 6, 1)),
            ]
        );
    }

    #[test]
    fn counts() {
        let s = sample();
        assert_eq!(s.num_receipts(), 5);
        assert_eq!(s.num_customers(), 2);
        assert_eq!(s.num_item_occurrences(), 10);
        assert!(!s.is_empty());
    }

    #[test]
    fn customer_rows_and_receipts() {
        let s = sample();
        assert_eq!(s.customer_rows(CustomerId::new(1)).unwrap(), 0..3);
        assert_eq!(s.customer_rows(CustomerId::new(2)).unwrap(), 3..5);
        assert!(matches!(
            s.customer_rows(CustomerId::new(99)),
            Err(StoreError::UnknownCustomer(99))
        ));
        let dates: Vec<Date> = s
            .customer_receipts(CustomerId::new(1))
            .unwrap()
            .map(|r| r.date)
            .collect();
        assert_eq!(dates, vec![d(2012, 5, 2), d(2012, 5, 20), d(2012, 7, 4)]);
    }

    #[test]
    fn contains_customer() {
        let s = sample();
        assert!(s.contains_customer(CustomerId::new(1)));
        assert!(!s.contains_customer(CustomerId::new(3)));
    }

    #[test]
    fn receipt_contents() {
        let s = sample();
        let r = s.receipt(0).unwrap();
        assert_eq!(r.customer, CustomerId::new(1));
        assert_eq!(r.items, &[ItemId::new(1), ItemId::new(2)]);
        assert_eq!(r.total, Cents(900));
        let owned = r.to_owned();
        assert_eq!(owned.basket.len(), 2);
    }

    #[test]
    fn receipt_out_of_range() {
        let s = sample();
        assert!(matches!(
            s.receipt(5),
            Err(StoreError::RowOutOfRange { row: 5, len: 5 })
        ));
    }

    #[test]
    fn customers_listing() {
        let s = sample();
        let ids: Vec<u64> = s.customers().map(|c| c.raw()).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn date_range() {
        let s = sample();
        assert_eq!(s.date_range(), Some((d(2012, 5, 2), d(2012, 7, 4))));
        assert_eq!(ReceiptStoreBuilder::new().build().date_range(), None);
    }

    #[test]
    fn scan_date_range_half_open() {
        let s = sample();
        let n = s.scan_date_range(d(2012, 5, 15), d(2012, 6, 1)).count();
        assert_eq!(n, 2); // May 15 and May 20; June 1 excluded
    }

    #[test]
    fn empty_store() {
        let s = ReceiptStoreBuilder::new().build();
        assert!(s.is_empty());
        assert_eq!(s.num_customers(), 0);
        assert_eq!(s.receipts().count(), 0);
        assert_eq!(s.max_item_id(), None);
    }

    #[test]
    fn max_item_id() {
        let s = sample();
        assert_eq!(s.max_item_id(), Some(ItemId::new(6)));
    }

    #[test]
    fn same_day_trips_kept() {
        let mut b = ReceiptStoreBuilder::new();
        b.push(receipt(1, d(2012, 5, 2), &[1], 100));
        b.push(receipt(1, d(2012, 5, 2), &[2], 200));
        let s = b.build();
        assert_eq!(s.num_receipts(), 2);
        let totals: Vec<Cents> = s
            .customer_receipts(CustomerId::new(1))
            .unwrap()
            .map(|r| r.total)
            .collect();
        assert_eq!(totals, vec![Cents(100), Cents(200)]);
    }

    #[test]
    fn builder_len() {
        let mut b = ReceiptStoreBuilder::with_capacity(4);
        assert!(b.is_empty());
        b.push(receipt(1, d(2012, 5, 2), &[1], 100));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn payload_bytes_positive() {
        assert!(sample().payload_bytes() > 0);
    }
}
