//! Hash-sharded stability monitors.
//!
//! Customers are routed to one of `n` independent [`StabilityMonitor`]s
//! by a multiplicative hash of their id, each shard behind its own
//! mutex — two receipts for different shards never contend, so ingest
//! throughput scales with the shard count while per-customer scoring
//! stays bit-identical to a single monitor (customer states are
//! independent by construction; asserted by the 1-vs-8-shard test).

use crate::protocol::ParsedRequest;
use attrition_core::incremental::WindowClosed;
use attrition_core::{StabilityMonitor, StabilityParams, StabilityPoint};
use attrition_store::WindowSpec;
use attrition_types::{Basket, CustomerId, Date, ItemId};
use std::sync::{Mutex, MutexGuard};

/// Fibonacci-hash multiplier (2^64 / φ), spreads sequential ids.
const HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// An ingest was rejected because the receipt predates the customer's
/// current window. Reported to the client as `ERR`; the shard is left
/// untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfOrder {
    /// The offending customer.
    pub customer: CustomerId,
    /// The rejected receipt's window.
    pub got: u32,
    /// The customer's current (minimum acceptable) window.
    pub current: u32,
}

impl std::fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out-of-order receipt for customer {}: window {} after {}",
            self.customer, self.got, self.current
        )
    }
}

impl std::error::Error for OutOfOrder {}

/// `n` independent monitors with deterministic customer routing.
#[derive(Debug)]
pub struct ShardedMonitor {
    shards: Vec<Mutex<StabilityMonitor>>,
}

/// A mutex whose holder panicked mid-operation left the shard in an
/// unknown intermediate state only for *that customer's* entry; every
/// operation here either completes or returns early before mutating, so
/// recovering the poisoned guard is sound.
fn lock(shard: &Mutex<StabilityMonitor>) -> MutexGuard<'_, StabilityMonitor> {
    shard.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl ShardedMonitor {
    /// `n_shards` empty monitors on a shared grid.
    pub fn new(
        n_shards: usize,
        spec: WindowSpec,
        params: StabilityParams,
        max_explanations: usize,
    ) -> ShardedMonitor {
        assert!(n_shards > 0, "need at least one shard");
        ShardedMonitor {
            shards: (0..n_shards)
                .map(|_| {
                    Mutex::new(
                        StabilityMonitor::new(spec, params).with_max_explanations(max_explanations),
                    )
                })
                .collect(),
        }
    }

    /// The shard a customer routes to. Deterministic across restarts
    /// (pure function of the id and the shard count).
    pub fn shard_of(&self, customer: CustomerId) -> usize {
        shard_of(customer, self.shards.len())
    }

    /// [`ingest_sorted`](ShardedMonitor::ingest_sorted) over a [`Basket`],
    /// whose items are already sorted and deduplicated.
    pub fn ingest(
        &self,
        customer: CustomerId,
        date: Date,
        basket: &Basket,
    ) -> Result<Vec<WindowClosed>, OutOfOrder> {
        self.ingest_sorted(customer, date, basket.items())
    }

    /// Ingest one receipt over a sorted, deduplicated item slice (a
    /// [`Basket`]'s canonical form), locking only the owning shard.
    /// Out-of-order receipts (per customer) are rejected by
    /// [`check_order`] instead of panicking the worker, so one
    /// misbehaving client cannot poison a shard.
    pub fn ingest_sorted(
        &self,
        customer: CustomerId,
        date: Date,
        items: &[ItemId],
    ) -> Result<Vec<WindowClosed>, OutOfOrder> {
        let mut shard = self.lock_shard(customer);
        check_order(&shard, customer, date)?;
        Ok(shard.ingest_sorted(customer, date, items))
    }

    pub(crate) fn lock_shard(&self, customer: CustomerId) -> MutexGuard<'_, StabilityMonitor> {
        lock(&self.shards[self.shard_of(customer)])
    }

    /// Live stability of a customer's current window.
    pub fn preview(&self, customer: CustomerId) -> Option<StabilityPoint> {
        self.lock_shard(customer).preview(customer)
    }

    /// Close every customer's windows up to (excluding) the window
    /// containing `now`, across all shards. The result is normalized to
    /// ascending `(customer, window)` order — identical to what a
    /// single-shard monitor emits from its own `flush_until`.
    pub fn flush_until(&self, now: Date) -> Vec<WindowClosed> {
        let mut closed: Vec<WindowClosed> = Vec::new();
        for shard in &self.shards {
            closed.extend(lock(shard).flush_until(now));
        }
        closed.sort_by_key(|c| (c.customer, c.point.window));
        closed
    }

    /// Customers tracked across all shards.
    pub fn num_customers(&self) -> usize {
        self.shards.iter().map(|s| lock(s).num_customers()).sum()
    }

    /// Customers tracked per shard (for gauges).
    pub fn customers_per_shard(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| lock(s).num_customers())
            .collect()
    }

    /// One snapshot of the whole sharded state, in the single-monitor
    /// [`StabilityMonitor::snapshot_bytes`] format — byte-for-byte what
    /// one monitor holding all customers would write, so it restores at
    /// any shard count. All shards are locked simultaneously (in index
    /// order, so concurrent callers cannot deadlock), making the cut a
    /// global point in time; customer blocks merge across shards without
    /// re-encoding because they are self-delimiting and sorted.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let guards: Vec<MutexGuard<'_, StabilityMonitor>> = self.shards.iter().map(lock).collect();
        StabilityMonitor::merge_snapshot_bytes(guards.iter().map(|g| &**g))
    }

    /// Fan one monitor's customers out across `n_shards` shards using
    /// the standard routing; the inverse of what
    /// [`snapshot_bytes`](ShardedMonitor::snapshot_bytes) merges. The
    /// shard count is free to differ from the one that wrote a restored
    /// snapshot — routing is recomputed per customer.
    pub fn from_monitor(monitor: StabilityMonitor, n_shards: usize) -> ShardedMonitor {
        assert!(n_shards > 0, "need at least one shard");
        let parts = monitor.partition(n_shards, |customer| shard_of(customer, n_shards));
        ShardedMonitor {
            shards: parts.into_iter().map(Mutex::new).collect(),
        }
    }
}

fn shard_of(customer: CustomerId, n_shards: usize) -> usize {
    (customer.raw().wrapping_mul(HASH) >> 32) as usize % n_shards
}

/// Apply one parsed `INGEST` or `FLUSH` (anything else panics) to one
/// monitor — the engine's live path and recovery's replay both, so live
/// and recovered state are one function of the log. An `INGEST` is
/// checked by [`check_order`] and its items (its `items` range, wire
/// order) canonicalized into `sorted`, as `Basket::new` would; then
/// `log` runs (the engine appends the record there) and, if it
/// succeeds, the mutation is applied.
pub(crate) fn apply<E: From<OutOfOrder>>(
    monitor: &mut StabilityMonitor,
    request: &ParsedRequest,
    items: &[ItemId],
    sorted: &mut Vec<ItemId>,
    log: impl FnOnce() -> Result<(), E>,
) -> Result<Vec<WindowClosed>, E> {
    match request {
        ParsedRequest::Ingest(customer, date, range) => {
            check_order(monitor, *customer, *date)?;
            sorted.clear();
            sorted.extend_from_slice(&items[range.clone()]);
            sorted.sort_unstable();
            sorted.dedup();
            log()?;
            Ok(monitor.ingest_sorted(*customer, *date, sorted))
        }
        ParsedRequest::Flush(date) => log().map(|()| monitor.flush_until(*date)),
        other => panic!("{} is not a mutation", other.verb()),
    }
}

/// The out-of-order rule: a receipt whose window precedes the
/// customer's current window is rejected (and, by the engine, never
/// logged). Uses the cheap [`StabilityMonitor::current_window`]
/// accessor — a full `preview()` clones pending items and computes
/// significance, which is pure waste on every in-order receipt.
pub(crate) fn check_order(
    monitor: &StabilityMonitor,
    customer: CustomerId,
    date: Date,
) -> Result<(), OutOfOrder> {
    if let (Some(window), Some(current)) = (
        monitor.spec().window_of(date),
        monitor.current_window(customer),
    ) {
        if window.raw() < current {
            return Err(OutOfOrder {
                customer,
                got: window.raw(),
                current,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::from_ymd(y, m, day).unwrap()
    }

    fn sharded(n: usize) -> ShardedMonitor {
        ShardedMonitor::new(
            n,
            WindowSpec::months(d(2012, 5, 1), 1),
            StabilityParams::PAPER,
            5,
        )
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let s = sharded(8);
        for raw in 0..1000u64 {
            let c = CustomerId::new(raw);
            let shard = s.shard_of(c);
            assert!(shard < 8);
            assert_eq!(shard, s.shard_of(c));
        }
    }

    #[test]
    fn routing_spreads_sequential_ids() {
        let s = sharded(8);
        let mut counts = [0usize; 8];
        for raw in 0..8000u64 {
            counts[s.shard_of(CustomerId::new(raw))] += 1;
        }
        // Every shard sees a reasonable share of dense sequential ids.
        for (shard, &n) in counts.iter().enumerate() {
            assert!(n > 500, "shard {shard} got only {n}/8000 customers");
        }
    }

    #[test]
    fn ingest_and_preview_route_to_the_same_shard() {
        let s = sharded(4);
        let c = CustomerId::new(42);
        s.ingest(c, d(2012, 5, 2), &Basket::from_raw(&[1, 2]))
            .unwrap();
        let p = s.preview(c).expect("customer exists after ingest");
        assert_eq!(p.window.raw(), 0);
        assert_eq!(s.num_customers(), 1);
        assert_eq!(s.customers_per_shard().iter().sum::<usize>(), 1);
    }

    #[test]
    fn out_of_order_rejected_not_panicking() {
        let s = sharded(4);
        let c = CustomerId::new(7);
        s.ingest(c, d(2012, 7, 2), &Basket::from_raw(&[1])).unwrap();
        let err = s
            .ingest(c, d(2012, 5, 2), &Basket::from_raw(&[1]))
            .unwrap_err();
        assert_eq!(err.customer, c);
        assert!(err.got < err.current);
        // The shard still works after the rejection.
        assert!(s.ingest(c, d(2012, 8, 2), &Basket::from_raw(&[2])).is_ok());
    }

    #[test]
    fn snapshot_merges_shards_in_customer_order() {
        let s = sharded(4);
        for raw in [9u64, 3, 17, 1] {
            s.ingest(CustomerId::new(raw), d(2012, 5, 2), &Basket::from_raw(&[1]))
                .unwrap();
        }
        let merged = StabilityMonitor::restore_bytes(&s.snapshot_bytes()).unwrap();
        let ids: Vec<u64> = merged.customer_ids().iter().map(|c| c.raw()).collect();
        assert_eq!(ids, vec![1, 3, 9, 17]);
        // Byte-for-byte what one monitor holding every customer writes.
        let single = sharded(1);
        for raw in [9u64, 3, 17, 1] {
            single
                .ingest(CustomerId::new(raw), d(2012, 5, 2), &Basket::from_raw(&[1]))
                .unwrap();
        }
        assert_eq!(s.snapshot_bytes(), single.snapshot_bytes());
    }

    #[test]
    fn snapshot_restore_across_different_shard_counts() {
        let s = sharded(4);
        for raw in 0..20u64 {
            s.ingest(
                CustomerId::new(raw),
                d(2012, 5, 2),
                &Basket::from_raw(&[1, 2]),
            )
            .unwrap();
            s.ingest(CustomerId::new(raw), d(2012, 6, 2), &Basket::from_raw(&[1]))
                .unwrap();
        }
        let snap = s.snapshot_bytes();
        for n in [1usize, 3, 8] {
            let restored =
                ShardedMonitor::from_monitor(StabilityMonitor::restore_bytes(&snap).unwrap(), n);
            assert_eq!(restored.num_customers(), 20);
            for raw in 0..20u64 {
                let c = CustomerId::new(raw);
                let a = s.preview(c).unwrap();
                let b = restored.preview(c).unwrap();
                assert_eq!(a.window, b.window);
                assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
            // The restored state writes the identical snapshot.
            assert_eq!(restored.snapshot_bytes(), snap);
        }
    }

    #[test]
    fn flush_order_matches_single_monitor() {
        let receipts: Vec<(u64, Date, Vec<u32>)> = (0..30u64)
            .map(|raw| (raw, d(2012, 5, 2), vec![1, (raw % 5) as u32 + 2]))
            .collect();
        let single = sharded(1);
        let many = sharded(8);
        for (raw, date, items) in &receipts {
            for s in [&single, &many] {
                s.ingest(CustomerId::new(*raw), *date, &Basket::from_raw(items))
                    .unwrap();
            }
        }
        let a = single.flush_until(d(2012, 8, 1));
        let b = many.flush_until(d(2012, 8, 1));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.customer, y.customer);
            assert_eq!(x.point.window, y.point.window);
            assert_eq!(x.point.value.to_bits(), y.point.value.to_bits());
        }
    }
}
