//! The paper's windowed database `D_i^w`.
//!
//! Section 2: *"Let `w` be a window. We divide `D_i` in consecutive non
//! overlapping windows of time span `w` to define the windowed database of
//! customer `i` […] `u_k` is the set of all products bought during window
//! `k`."*
//!
//! [`WindowSpec`] defines the grid (origin + span, in days or calendar
//! months — the paper uses months); [`CustomerWindows`] is one customer's
//! `D_i^w` together with the per-window aggregates the RFM baseline needs
//! (trip count, spend, cumulative last-purchase date); and
//! [`WindowedDatabase`] materializes all customers at once.
//!
//! Two alignments are supported (an explicit design decision, see
//! DESIGN.md): [`WindowAlignment::Global`] anchors every customer on the
//! observation start, which is what the paper's shared "number of months"
//! axis implies; [`WindowAlignment::PerCustomerFirstPurchase`] anchors each
//! customer on their own first trip, which the alignment ablation compares.

use crate::{ReceiptStore, StoreError};
use attrition_types::{Basket, Cents, CustomerId, Date, ItemId, WindowIndex};

/// Span of one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowLength {
    /// A fixed number of days.
    Days(u32),
    /// A number of calendar months (the paper's unit; months have unequal
    /// day counts, so this is not expressible in `Days`).
    Months(u32),
}

/// A window grid: an origin plus a span.
///
/// ```
/// use attrition_store::WindowSpec;
/// use attrition_types::Date;
///
/// // The paper's grid: 2-month windows from May 2012.
/// let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 2);
/// let date = Date::from_ymd(2013, 2, 14).unwrap();
/// assert_eq!(spec.window_of(date).unwrap().raw(), 4); // Jan–Feb 2013
/// assert_eq!(
///     spec.windows_covering(Date::from_ymd(2014, 8, 31).unwrap()),
///     14 // the paper's 28 months
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// First day of window 0.
    pub origin: Date,
    /// Span of every window.
    pub length: WindowLength,
}

impl WindowSpec {
    /// Grid of `m`-calendar-month windows starting at `origin`.
    pub fn months(origin: Date, m: u32) -> WindowSpec {
        assert!(m > 0, "window length must be positive");
        WindowSpec {
            origin,
            length: WindowLength::Months(m),
        }
    }

    /// Grid of `d`-day windows starting at `origin`.
    pub fn days(origin: Date, d: u32) -> WindowSpec {
        assert!(d > 0, "window length must be positive");
        WindowSpec {
            origin,
            length: WindowLength::Days(d),
        }
    }

    /// First day of window `k` (inclusive).
    pub fn window_start(&self, k: u32) -> Date {
        match self.length {
            WindowLength::Days(d) => self.origin + (k * d) as i32,
            WindowLength::Months(m) => self.origin.add_months((k * m) as i32),
        }
    }

    /// First day *after* window `k` (exclusive end).
    pub fn window_end(&self, k: u32) -> Date {
        self.window_start(k + 1)
    }

    /// The window containing `date`, or `None` if `date` precedes the
    /// origin.
    pub fn window_of(&self, date: Date) -> Option<WindowIndex> {
        if date < self.origin {
            return None;
        }
        let mut k = match self.length {
            WindowLength::Days(d) => (date.days_since(self.origin) as u32) / d,
            WindowLength::Months(m) => {
                // Month arithmetic: the quotient is exact when the origin is
                // the 1st; otherwise correct by at most one step.
                (date.months_since(self.origin).max(0) as u32) / m
            }
        };
        while date < self.window_start(k) {
            k -= 1;
        }
        while date >= self.window_end(k) {
            k += 1;
        }
        Some(WindowIndex::new(k))
    }

    /// Number of windows needed to cover every date in `[origin, last]`
    /// (`0` when `last` precedes the origin).
    pub fn windows_covering(&self, last: Date) -> u32 {
        match self.window_of(last) {
            Some(k) => k.raw() + 1,
            None => 0,
        }
    }
}

/// One customer's windowed database plus per-window aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomerWindows {
    /// The customer.
    pub customer: CustomerId,
    /// `u_k`: the set of all products bought during window `k`. Windows
    /// with no shopping trip hold an empty basket.
    pub baskets: Vec<Basket>,
    /// Number of shopping trips in each window.
    pub trips: Vec<u32>,
    /// Total spend in each window.
    pub spend: Vec<Cents>,
    /// Date of the customer's most recent trip at or before the end of
    /// each window (`None` until the first trip). Cumulative — used for
    /// the RFM recency feature.
    pub last_purchase: Vec<Option<Date>>,
    /// Grid the windows were computed on (after alignment resolution).
    pub spec: WindowSpec,
}

impl CustomerWindows {
    /// Number of windows materialized.
    pub fn num_windows(&self) -> usize {
        self.baskets.len()
    }

    /// `u_k`, or `None` beyond the horizon.
    pub fn basket(&self, k: WindowIndex) -> Option<&Basket> {
        self.baskets.get(k.index())
    }

    /// All distinct items the customer ever bought within the horizon.
    pub fn vocabulary(&self) -> Basket {
        let mut all: Vec<ItemId> = Vec::new();
        for b in &self.baskets {
            all.extend(b.iter());
        }
        Basket::new(all)
    }

    /// Build from a chronological receipt iterator.
    ///
    /// `n_windows` fixes the horizon; receipts outside `[origin,
    /// window_end(n_windows-1))` are ignored. A receipt's window is worked
    /// out only when it leaves the bounds of the previous receipt's
    /// window, and each window's item set is a merge of the receipts'
    /// sorted items.
    pub fn from_receipts<'a>(
        customer: CustomerId,
        receipts: impl Iterator<Item = crate::ReceiptRef<'a>>,
        spec: WindowSpec,
        n_windows: u32,
    ) -> CustomerWindows {
        let n = n_windows as usize;
        let mut baskets = vec![Basket::empty(); n];
        let mut trips = vec![0u32; n];
        let mut spend = vec![Cents::ZERO; n];
        // Last trip date per window (then made cumulative below).
        let mut last_in_window: Vec<Option<Date>> = vec![None; n];
        // The window being filled, its bounds, and its item set so far.
        let mut open: Option<(usize, Date, Date)> = None;
        let mut union: Vec<ItemId> = Vec::new();
        let mut merged: Vec<ItemId> = Vec::new();
        for r in receipts {
            let k = match open {
                Some((k, start, end)) if start <= r.date && r.date < end => k,
                _ => {
                    let Some(k) = spec.window_of(r.date) else {
                        continue;
                    };
                    if k.index() >= n {
                        continue;
                    }
                    if let Some((prev, _, _)) = open {
                        baskets[prev] = Basket::new(union.clone());
                    }
                    union.clear();
                    union.extend_from_slice(baskets[k.index()].items());
                    open = Some((
                        k.index(),
                        spec.window_start(k.raw()),
                        spec.window_end(k.raw()),
                    ));
                    k.index()
                }
            };
            merge_sorted(&mut union, r.items, &mut merged);
            trips[k] += 1;
            spend[k] += r.total;
            last_in_window[k] = Some(match last_in_window[k] {
                Some(d) => d.max(r.date),
                None => r.date,
            });
        }
        if let Some((k, _, _)) = open {
            baskets[k] = Basket::new(union);
        }
        let mut last_purchase = vec![None; n];
        let mut running: Option<Date> = None;
        for k in 0..n {
            if let Some(d) = last_in_window[k] {
                running = Some(running.map_or(d, |r| r.max(d)));
            }
            last_purchase[k] = running;
        }
        CustomerWindows {
            customer,
            baskets,
            trips,
            spend,
            last_purchase,
            spec,
        }
    }
}

/// `union ← union ∪ items` for sorted, distinct slices; `scratch` is a
/// reusable buffer.
fn merge_sorted(union: &mut Vec<ItemId>, items: &[ItemId], scratch: &mut Vec<ItemId>) {
    if union.is_empty() {
        union.extend_from_slice(items);
        return;
    }
    scratch.clear();
    let (mut i, mut j) = (0, 0);
    while i < union.len() && j < items.len() {
        let (a, b) = (union[i], items[j]);
        scratch.push(a.min(b));
        i += usize::from(a <= b);
        j += usize::from(b <= a);
    }
    scratch.extend_from_slice(&union[i..]);
    scratch.extend_from_slice(&items[j..]);
    std::mem::swap(union, scratch);
}

/// How to anchor the window grid per customer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowAlignment {
    /// All customers share the grid anchored at the spec origin (the
    /// paper's setting: a common "number of months" axis).
    #[default]
    Global,
    /// Each customer's grid is anchored at their own first purchase date.
    /// Their windows still use the spec's length and are truncated at the
    /// global horizon.
    PerCustomerFirstPurchase,
}

/// All customers' windowed databases over a common horizon.
#[derive(Debug, Clone)]
pub struct WindowedDatabase {
    /// The grid (global origin + span).
    pub spec: WindowSpec,
    /// Number of windows in the horizon (for globally aligned customers).
    pub num_windows: u32,
    /// Alignment used.
    pub alignment: WindowAlignment,
    customers: Vec<CustomerWindows>,
}

impl WindowedDatabase {
    /// Window every customer of `store` on `spec` with `n_windows`
    /// horizon windows.
    pub fn from_store(
        store: &ReceiptStore,
        spec: WindowSpec,
        n_windows: u32,
        alignment: WindowAlignment,
    ) -> WindowedDatabase {
        let _stage = attrition_obs::Stage::enter("windowing");
        let horizon_end = spec.window_end(n_windows.saturating_sub(1));
        let customers = store
            .customers()
            .map(|id| {
                let receipts = store
                    .customer_receipts(id)
                    .expect("customer listed by the store");
                match alignment {
                    WindowAlignment::Global => {
                        CustomerWindows::from_receipts(id, receipts, spec, n_windows)
                    }
                    WindowAlignment::PerCustomerFirstPurchase => {
                        let mut receipts = receipts.peekable();
                        let first = receipts.peek().map(|r| r.date);
                        match first {
                            Some(first) if first < horizon_end => {
                                let own = WindowSpec {
                                    origin: first.max(spec.origin),
                                    length: spec.length,
                                };
                                let n = own.windows_covering(horizon_end + -1);
                                CustomerWindows::from_receipts(id, receipts, own, n)
                            }
                            _ => CustomerWindows::from_receipts(id, receipts, spec, 0),
                        }
                    }
                }
            })
            .collect::<Vec<_>>();
        if attrition_obs::enabled() {
            attrition_obs::global()
                .counter("store.customers_windowed")
                .add(customers.len() as u64);
        }
        WindowedDatabase {
            spec,
            num_windows: n_windows,
            alignment,
            customers,
        }
    }

    /// Convenience: derive the horizon from the store's own date range.
    pub fn covering_store(
        store: &ReceiptStore,
        spec: WindowSpec,
        alignment: WindowAlignment,
    ) -> WindowedDatabase {
        let n = store
            .date_range()
            .map(|(_, last)| spec.windows_covering(last))
            .unwrap_or(0);
        WindowedDatabase::from_store(store, spec, n, alignment)
    }

    /// Per-customer windowed views, in customer-id order.
    pub fn customers(&self) -> &[CustomerWindows] {
        &self.customers
    }

    /// Number of customers.
    pub fn num_customers(&self) -> usize {
        self.customers.len()
    }

    /// One customer's view.
    pub fn customer(&self, id: CustomerId) -> Result<&CustomerWindows, StoreError> {
        self.customers
            .binary_search_by_key(&id, |c| c.customer)
            .map(|pos| &self.customers[pos])
            .map_err(|_| StoreError::UnknownCustomer(id.raw()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReceiptStoreBuilder;
    use attrition_types::Receipt;

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

    #[test]
    fn monthly_grid_bounds() {
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        assert_eq!(spec.window_start(0), d(2012, 5, 1));
        assert_eq!(spec.window_end(0), d(2012, 7, 1));
        assert_eq!(spec.window_start(3), d(2012, 11, 1));
        // Paper: 28 months → 14 two-month windows.
        assert_eq!(spec.windows_covering(d(2014, 8, 31)), 14);
    }

    #[test]
    fn daily_grid_bounds() {
        let spec = WindowSpec::days(d(2012, 5, 1), 7);
        assert_eq!(spec.window_start(1), d(2012, 5, 8));
        assert_eq!(spec.window_of(d(2012, 5, 7)).unwrap().raw(), 0);
        assert_eq!(spec.window_of(d(2012, 5, 8)).unwrap().raw(), 1);
    }

    #[test]
    fn window_of_edges() {
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        assert_eq!(spec.window_of(d(2012, 4, 30)), None);
        assert_eq!(spec.window_of(d(2012, 5, 1)).unwrap().raw(), 0);
        assert_eq!(spec.window_of(d(2012, 6, 30)).unwrap().raw(), 0);
        assert_eq!(spec.window_of(d(2012, 7, 1)).unwrap().raw(), 1);
        assert_eq!(spec.window_of(d(2014, 8, 31)).unwrap().raw(), 13);
    }

    #[test]
    fn window_of_mid_month_origin() {
        // Origins not on the 1st still partition correctly.
        let spec = WindowSpec::months(d(2012, 5, 15), 1);
        assert_eq!(spec.window_of(d(2012, 5, 14)), None);
        assert_eq!(spec.window_of(d(2012, 6, 14)).unwrap().raw(), 0);
        assert_eq!(spec.window_of(d(2012, 6, 15)).unwrap().raw(), 1);
    }

    #[test]
    fn windows_covering_before_origin() {
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        assert_eq!(spec.windows_covering(d(2012, 4, 1)), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        WindowSpec::months(d(2012, 5, 1), 0);
    }

    fn sample_store() -> ReceiptStore {
        let mut b = ReceiptStoreBuilder::new();
        // Customer 1: trips in windows 0, 0, 2 (2-month windows from May).
        b.push(receipt(1, d(2012, 5, 3), &[1, 2], 500));
        b.push(receipt(1, d(2012, 6, 20), &[2, 3], 700));
        b.push(receipt(1, d(2012, 9, 10), &[1], 300));
        // Customer 2: single trip in window 1.
        b.push(receipt(2, d(2012, 8, 1), &[9], 900));
        b.build()
    }

    #[test]
    fn customer_windows_unions() {
        let store = sample_store();
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        let db = WindowedDatabase::from_store(&store, spec, 3, WindowAlignment::Global);
        let c1 = db.customer(CustomerId::new(1)).unwrap();
        assert_eq!(c1.num_windows(), 3);
        // u_0 = {1,2} ∪ {2,3} = {1,2,3}
        assert_eq!(c1.baskets[0], Basket::from_raw(&[1, 2, 3]));
        assert!(c1.baskets[1].is_empty());
        assert_eq!(c1.baskets[2], Basket::from_raw(&[1]));
        assert_eq!(c1.trips, vec![2, 0, 1]);
        assert_eq!(c1.spend, vec![Cents(1200), Cents::ZERO, Cents(300)]);
        assert_eq!(
            c1.last_purchase,
            vec![
                Some(d(2012, 6, 20)),
                Some(d(2012, 6, 20)),
                Some(d(2012, 9, 10))
            ]
        );
    }

    #[test]
    fn receipts_beyond_horizon_ignored() {
        let store = sample_store();
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        let db = WindowedDatabase::from_store(&store, spec, 1, WindowAlignment::Global);
        let c1 = db.customer(CustomerId::new(1)).unwrap();
        assert_eq!(c1.num_windows(), 1);
        assert_eq!(c1.trips, vec![2]);
    }

    #[test]
    fn unknown_customer_errors() {
        let store = sample_store();
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        let db = WindowedDatabase::from_store(&store, spec, 3, WindowAlignment::Global);
        assert!(db.customer(CustomerId::new(42)).is_err());
    }

    #[test]
    fn covering_store_derives_horizon() {
        let store = sample_store();
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        let db = WindowedDatabase::covering_store(&store, spec, WindowAlignment::Global);
        assert_eq!(db.num_windows, 3); // last receipt 2012-09-10 → window 2
        assert_eq!(db.num_customers(), 2);
    }

    #[test]
    fn per_customer_alignment_shifts_origin() {
        let store = sample_store();
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        let db = WindowedDatabase::from_store(
            &store,
            spec,
            3,
            WindowAlignment::PerCustomerFirstPurchase,
        );
        let c2 = db.customer(CustomerId::new(2)).unwrap();
        // Customer 2's first trip is 2012-08-01, so their window 0 starts
        // there and contains the single trip.
        assert_eq!(c2.spec.origin, d(2012, 8, 1));
        assert_eq!(c2.trips[0], 1);
        assert!(!c2.baskets[0].is_empty());
    }

    #[test]
    fn vocabulary_unions_all_windows() {
        let store = sample_store();
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        let db = WindowedDatabase::from_store(&store, spec, 3, WindowAlignment::Global);
        let c1 = db.customer(CustomerId::new(1)).unwrap();
        assert_eq!(c1.vocabulary(), Basket::from_raw(&[1, 2, 3]));
    }

    #[test]
    fn receipts_before_origin_ignored() {
        let mut b = ReceiptStoreBuilder::new();
        b.push(receipt(1, d(2012, 1, 1), &[7], 100));
        b.push(receipt(1, d(2012, 5, 5), &[8], 100));
        let store = b.build();
        let spec = WindowSpec::months(d(2012, 5, 1), 1);
        let db = WindowedDatabase::from_store(&store, spec, 2, WindowAlignment::Global);
        let c = db.customer(CustomerId::new(1)).unwrap();
        assert_eq!(c.trips, vec![1, 0]);
        assert!(!c.baskets[0].contains(ItemId::new(7)));
    }

    #[test]
    fn empty_store_windowed() {
        let store = ReceiptStoreBuilder::new().build();
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        let db = WindowedDatabase::covering_store(&store, spec, WindowAlignment::Global);
        assert_eq!(db.num_windows, 0);
        assert_eq!(db.num_customers(), 0);
    }

    #[test]
    fn basket_accessor_bounds() {
        let store = sample_store();
        let spec = WindowSpec::months(d(2012, 5, 1), 2);
        let db = WindowedDatabase::from_store(&store, spec, 3, WindowAlignment::Global);
        let c1 = db.customer(CustomerId::new(1)).unwrap();
        assert!(c1.basket(WindowIndex::new(2)).is_some());
        assert!(c1.basket(WindowIndex::new(3)).is_none());
    }
}
