//! Streaming stability monitoring.
//!
//! The batch engine recomputes from scratch; a deployed retention system
//! instead *watches receipts arrive* and closes a window per customer
//! when the calendar crosses a window boundary. [`StabilityMonitor`] is
//! that online mode: feed receipts in any order of customers (but
//! chronologically per customer); every time a customer's receipt lands
//! past their current window, the elapsed windows are closed and scored.
//!
//! The scores are identical to the batch engine's by construction (same
//! tracker, same fold order) — asserted by integration tests.

use crate::explanation::{LostProduct, WindowExplanation};
use crate::params::StabilityParams;
use crate::significance::SignificanceTracker;
use crate::stability::StabilityPoint;
use attrition_store::{ByteReader, ByteWriter, WindowSpec};
use attrition_types::{Basket, CustomerId, Date, ItemId, WindowIndex};
use std::collections::HashMap;

/// Binary monitor-snapshot magic: "ATTRMON" + format version 1.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ATTRMON1";

/// A structured error from
/// [`restore_bytes`](StabilityMonitor::restore_bytes): names the field
/// that failed, when attributable, so an operator restoring a server
/// snapshot sees *what* in the file is bad instead of a context-free
/// message. Byte offsets, where useful, are in the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    /// The field that failed to decode, when attributable.
    pub field: Option<&'static str>,
    /// What went wrong.
    pub message: String,
}

impl RestoreError {
    fn new(field: Option<&'static str>, message: impl Into<String>) -> RestoreError {
        RestoreError {
            field,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.field {
            Some(field) => write!(f, "monitor snapshot, field `{}`: {}", field, self.message),
            None => write!(f, "monitor snapshot: {}", self.message),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A closed-window event emitted by the monitor.
#[derive(Debug, Clone)]
pub struct WindowClosed {
    /// The customer whose window closed.
    pub customer: CustomerId,
    /// The scored point.
    pub point: StabilityPoint,
    /// The ranked lost products of that window.
    pub explanation: WindowExplanation,
}

/// Per-customer online state.
#[derive(Debug)]
struct CustomerState {
    tracker: SignificanceTracker,
    /// Window currently being accumulated.
    current_window: u32,
    /// Items seen so far in the current window.
    pending: Vec<ItemId>,
}

/// Online, multi-customer stability monitor.
///
/// Customer state lives in an arena (`Vec<CustomerState>`, each state
/// two flat sorted columns) with a side index from id to arena slot —
/// the only hash map left in the hot path. At a million residents this
/// keeps per-customer overhead to the two column vectors plus one
/// 12-byte index entry, instead of a map of individually-boxed states.
#[derive(Debug)]
pub struct StabilityMonitor {
    spec: WindowSpec,
    params: StabilityParams,
    max_explanations: usize,
    /// Arena of per-customer state, in first-seen order.
    states: Vec<CustomerState>,
    /// Customer id → arena slot.
    index: HashMap<CustomerId, u32>,
    /// The close step's top-K scratch, reused by every close.
    top: Vec<LostProduct>,
}

impl StabilityMonitor {
    /// Create a monitor on a window grid.
    pub fn new(spec: WindowSpec, params: StabilityParams) -> StabilityMonitor {
        StabilityMonitor {
            spec,
            params,
            max_explanations: 5,
            states: Vec::new(),
            index: HashMap::new(),
            top: Vec::new(),
        }
    }

    /// Arena slot of a customer, if tracked.
    #[inline]
    fn slot(&self, customer: CustomerId) -> Option<usize> {
        self.index.get(&customer).map(|&i| i as usize)
    }

    /// Append a customer's state to the arena. The caller guarantees the
    /// customer is not yet tracked.
    fn push_state(&mut self, customer: CustomerId, state: CustomerState) -> usize {
        debug_assert!(!self.index.contains_key(&customer));
        let slot = self.states.len();
        self.states.push(state);
        self.index.insert(customer, slot as u32);
        slot
    }

    /// Tracked customers with their arena slots, ascending by id.
    fn ordered_slots(&self) -> Vec<(CustomerId, usize)> {
        let mut ids: Vec<(CustomerId, usize)> =
            self.index.iter().map(|(&c, &i)| (c, i as usize)).collect();
        ids.sort_unstable();
        ids
    }

    /// Heap bytes held by the monitor (capacities, not lengths): the
    /// arena, the id index, and every tracker's columns. Used by the
    /// capacity bench to report bytes-per-resident-customer.
    pub fn heap_bytes(&self) -> usize {
        let mut total = self.states.capacity() * std::mem::size_of::<CustomerState>()
            // id + slot per entry plus hashbrown's control byte and
            // 87.5% max load factor, approximately.
            + self.index.capacity()
                * (std::mem::size_of::<(CustomerId, u32)>() + std::mem::size_of::<u32>());
        for state in &self.states {
            total += state.tracker.heap_bytes()
                + state.pending.capacity() * std::mem::size_of::<ItemId>();
        }
        total
    }

    /// Override how many lost products each emitted explanation retains.
    pub fn with_max_explanations(mut self, n: usize) -> StabilityMonitor {
        self.max_explanations = n;
        self
    }

    /// Number of customers currently tracked.
    pub fn num_customers(&self) -> usize {
        self.states.len()
    }

    /// The window grid this monitor scores on.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// The significance parameters this monitor scores with.
    pub fn params(&self) -> StabilityParams {
        self.params
    }

    /// How many lost products each emitted explanation retains.
    pub fn max_explanations(&self) -> usize {
        self.max_explanations
    }

    /// The tracked customers, in ascending id order.
    pub fn customer_ids(&self) -> Vec<CustomerId> {
        let mut ids: Vec<CustomerId> = self.index.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Split the monitor into `n` monitors that together track exactly
    /// the original customer set: customer `c` moves to the monitor at
    /// `route(c)`. All fragments share the grid and parameters; scoring
    /// a customer in its fragment is bit-identical to scoring it here
    /// (per-customer state is independent). This is what a shard router
    /// uses to fan one restored checkpoint out across shards.
    ///
    /// # Panics
    /// If `n == 0` or `route` returns an index `>= n`.
    pub fn partition(self, n: usize, route: impl Fn(CustomerId) -> usize) -> Vec<StabilityMonitor> {
        assert!(n > 0, "cannot partition into zero monitors");
        let mut parts: Vec<StabilityMonitor> = (0..n)
            .map(|_| {
                StabilityMonitor::new(self.spec, self.params)
                    .with_max_explanations(self.max_explanations)
            })
            .collect();
        // Recover each slot's id before consuming the arena.
        let mut ids = vec![CustomerId::new(0); self.states.len()];
        for (&customer, &slot) in &self.index {
            ids[slot as usize] = customer;
        }
        for (slot, state) in self.states.into_iter().enumerate() {
            let customer = ids[slot];
            let shard = route(customer);
            assert!(
                shard < n,
                "route({customer}) returned shard {shard}, but only {n} exist"
            );
            parts[shard].push_state(customer, state);
        }
        parts
    }

    /// Ingest one receipt. Receipts of the same customer must arrive in
    /// chronological order; receipts dated before the grid origin are
    /// ignored. Returns the windows that were closed (and scored) by this
    /// receipt's arrival — empty while the receipt falls into the
    /// customer's current window.
    pub fn ingest(
        &mut self,
        customer: CustomerId,
        date: Date,
        basket: &Basket,
    ) -> Vec<WindowClosed> {
        // A basket is sorted + deduplicated by construction, so the
        // slice path applies identically.
        self.ingest_sorted(customer, date, basket.items())
    }

    /// [`ingest`](StabilityMonitor::ingest) over a plain sorted,
    /// deduplicated item slice — the zero-allocation entry point of the
    /// batched wire path, which sorts into a reusable scratch buffer
    /// instead of building a [`Basket`] per receipt. Behavior (and every
    /// emitted score) is bit-identical to `ingest` with
    /// `Basket::new(items.to_vec())`.
    ///
    /// # Panics
    /// Debug builds assert the slice is strictly ascending.
    pub fn ingest_sorted(
        &mut self,
        customer: CustomerId,
        date: Date,
        items: &[ItemId],
    ) -> Vec<WindowClosed> {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "ingest_sorted requires sorted, deduplicated items"
        );
        let Some(window) = self.spec.window_of(date) else {
            return Vec::new();
        };
        let slot = match self.slot(customer) {
            Some(slot) => slot,
            None => self.push_state(
                customer,
                CustomerState {
                    tracker: SignificanceTracker::new(self.params),
                    current_window: 0,
                    pending: Vec::new(),
                },
            ),
        };
        let state = &mut self.states[slot];
        assert!(
            window.raw() >= state.current_window,
            "receipts of customer {customer} arrived out of order \
             (window {} after {})",
            window.raw(),
            state.current_window
        );
        let (max, top) = (self.max_explanations, &mut self.top);
        let mut closed = Vec::new();
        while state.current_window < window.raw() {
            closed.push(close_one(customer, state, max, top));
        }
        state.pending.extend_from_slice(items);
        if attrition_obs::enabled() {
            let registry = attrition_obs::global();
            registry.counter("core.monitor.receipts_ingested").add(1);
            registry
                .counter("core.monitor.windows_closed")
                .add(closed.len() as u64);
        }
        closed
    }

    /// Close every customer's windows up to (excluding) the window
    /// containing `now`; call at end-of-period or on a timer.
    pub fn flush_until(&mut self, now: Date) -> Vec<WindowClosed> {
        let Some(window) = self.spec.window_of(now) else {
            return Vec::new();
        };
        let mut closed = Vec::new();
        for (id, slot) in self.ordered_slots() {
            let state = &mut self.states[slot];
            while state.current_window < window.raw() {
                closed.push(close_one(id, state, self.max_explanations, &mut self.top));
            }
        }
        closed
    }

    /// The window a customer is currently accumulating, without
    /// computing significance or cloning pending items — the cheap
    /// accessor the ingest path uses for its out-of-order check (a full
    /// [`preview`](StabilityMonitor::preview) allocates and scores).
    pub fn current_window(&self, customer: CustomerId) -> Option<u32> {
        self.slot(customer)
            .map(|slot| self.states[slot].current_window)
    }

    /// The live (not yet closed) stability of a customer's current
    /// window, scored against their history so far.
    pub fn preview(&self, customer: CustomerId) -> Option<StabilityPoint> {
        let state = &self.states[self.slot(customer)?];
        let u = Basket::new(state.pending.clone());
        let k = WindowIndex::new(state.current_window);
        Some(state.tracker.score_window(k, u.items(), 0, &mut Vec::new()))
    }

    /// Render the monitor's state as text, for people and for readable
    /// test diffs (`attrition dump` prints it). Nothing parses it back:
    /// the on-disk encoding is [`snapshot_bytes`](StabilityMonitor::snapshot_bytes).
    ///
    /// Layout: a header row `#monitor,<windows grid origin days>,<length
    /// code>,<alpha>,<max_explanations>`, then per customer in ascending
    /// id order `c,<customer>,<current_window>,<windows_observed>`, one
    /// `i,<customer>,<item>,<count>` row per tracked item (ascending) and
    /// one `p,<customer>,<item>,` row (empty fourth field) per pending
    /// (current-window) item occurrence. Two monitors render equal text
    /// exactly when their binary snapshots are equal.
    pub fn snapshot(&self) -> String {
        use attrition_util::csv::CsvWriter;
        let mut w = CsvWriter::new();
        let length_code = match self.spec.length {
            attrition_store::WindowLength::Days(d) => format!("d{d}"),
            attrition_store::WindowLength::Months(m) => format!("m{m}"),
        };
        w.record(&[
            "#monitor",
            &self.spec.origin.days_since_epoch().to_string(),
            &length_code,
            &self.params.alpha.to_string(),
            &self.max_explanations.to_string(),
        ]);
        for (id, slot) in self.ordered_slots() {
            let state = &self.states[slot];
            w.record(&[
                "c",
                &id.raw().to_string(),
                &state.current_window.to_string(),
                &state.tracker.windows_observed().to_string(),
            ]);
            // tracked_items() iterates in ascending item order.
            for (item, count, _, _) in state.tracker.tracked_items() {
                w.record(&[
                    "i",
                    &id.raw().to_string(),
                    &item.raw().to_string(),
                    &count.to_string(),
                ]);
            }
            for item in &state.pending {
                w.record(&["p", &id.raw().to_string(), &item.raw().to_string(), ""]);
            }
        }
        w.finish()
    }

    /// Serialize the monitor's state to the compact binary snapshot.
    ///
    /// Layout (all integers little-endian):
    ///
    /// ```text
    /// [0..8)  magic  b"ATTRMON1"
    /// i32     window grid origin, days since epoch
    /// u8      window length kind: 0 = days, 1 = months
    /// u32     window length value
    /// u64     alpha, IEEE-754 bits
    /// u64     max_explanations
    /// u64     n  (customers)
    /// ```
    ///
    /// then one self-delimiting block per customer, ascending by id:
    ///
    /// ```text
    /// u64     customer id
    /// u32     current_window
    /// u32     windows_observed
    /// u32     t  (tracked items)
    /// u32     p  (pending items)
    /// (u32 item, u32 count) × t   ascending by item
    /// u32 × p                      pending items, arrival order
    /// ```
    ///
    /// Because blocks are self-delimiting and globally sorted, shard
    /// snapshots merge by interleaving blocks
    /// ([`merge_snapshot_bytes`](StabilityMonitor::merge_snapshot_bytes))
    /// without re-encoding. A monitor restored with
    /// [`restore_bytes`](StabilityMonitor::restore_bytes) produces
    /// bit-identical scores and snapshots from then on.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        StabilityMonitor::merge_snapshot_bytes([self])
    }

    /// Binary snapshot of several disjoint monitors (shards of one
    /// logical monitor) as if they were a single monitor: one header,
    /// customer blocks interleaved into ascending id order. All parts
    /// must share grid, parameters, and `max_explanations`, and no
    /// customer may appear in two parts.
    ///
    /// # Panics
    /// If `parts` is empty or the parts disagree on grid/parameters.
    pub fn merge_snapshot_bytes<'a>(
        parts: impl IntoIterator<Item = &'a StabilityMonitor>,
    ) -> Vec<u8> {
        let parts: Vec<&StabilityMonitor> = parts.into_iter().collect();
        let first = *parts.first().expect("at least one monitor to snapshot");
        let mut order: Vec<(CustomerId, usize, usize)> = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            assert!(
                part.spec == first.spec
                    && part.params.alpha.to_bits() == first.params.alpha.to_bits()
                    && part.max_explanations == first.max_explanations,
                "snapshot parts disagree on grid or parameters"
            );
            order.extend(
                part.index
                    .iter()
                    .map(|(&customer, &slot)| (customer, p, slot as usize)),
            );
        }
        order.sort_unstable_by_key(|&(customer, _, _)| customer);

        let mut w = ByteWriter::with_capacity(64 + order.len() * 64);
        w.bytes(&SNAPSHOT_MAGIC);
        w.i32(first.spec.origin.days_since_epoch());
        let (kind, value) = match first.spec.length {
            attrition_store::WindowLength::Days(d) => (0u8, d),
            attrition_store::WindowLength::Months(m) => (1u8, m),
        };
        w.u8(kind);
        w.u32(value);
        w.f64(first.params.alpha);
        w.u64(first.max_explanations as u64);
        w.u64(order.len() as u64);
        for window in order.windows(2) {
            assert!(
                window[0].0 != window[1].0,
                "customer {} appears in two snapshot parts",
                window[0].0
            );
        }
        for (customer, p, slot) in order {
            let state = &parts[p].states[slot];
            w.u64(customer.raw());
            w.u32(state.current_window);
            w.u32(state.tracker.windows_observed());
            w.u32(state.tracker.num_tracked() as u32);
            w.u32(state.pending.len() as u32);
            for (item, count, _, _) in state.tracker.tracked_items() {
                w.u32(item.raw());
                w.u32(count);
            }
            for item in &state.pending {
                w.u32(item.raw());
            }
        }
        w.into_bytes()
    }

    /// Restore a monitor from a binary snapshot
    /// ([`snapshot_bytes`](StabilityMonitor::snapshot_bytes)).
    ///
    /// Every read is bounds-checked and every invariant the encoder
    /// maintains (ascending customer ids, ascending item ids, counts
    /// within `1..=windows_observed`) is validated, so truncated,
    /// bit-flipped, or simply wrong input fails with a structured
    /// [`RestoreError`] — never a panic and never a monitor with
    /// corrupt internal state.
    pub fn restore_bytes(bytes: &[u8]) -> Result<StabilityMonitor, RestoreError> {
        let be = |field: Option<&'static str>| {
            move |e: attrition_store::ByteError| RestoreError::new(field, e.to_string())
        };
        let mut r = ByteReader::new(bytes);
        let magic = r.take(8).map_err(be(Some("magic")))?;
        if magic[..7] != SNAPSHOT_MAGIC[..7] {
            return Err(RestoreError::new(
                Some("magic"),
                "not a binary monitor snapshot",
            ));
        }
        if magic != SNAPSHOT_MAGIC {
            return Err(RestoreError::new(
                Some("magic"),
                format!(
                    "unsupported snapshot version {:?} (expected {:?})",
                    magic[7] as char, SNAPSHOT_MAGIC[7] as char
                ),
            ));
        }
        let origin = Date::from_days(r.i32().map_err(be(Some("origin")))?);
        let kind = r.u8().map_err(be(Some("length")))?;
        let value = r.u32().map_err(be(Some("length")))?;
        let spec = match kind {
            0 => WindowSpec::days(origin, value),
            1 => WindowSpec::months(origin, value),
            other => {
                return Err(RestoreError::new(
                    Some("length"),
                    format!("unknown window length kind {other}"),
                ))
            }
        };
        let alpha = r.f64().map_err(be(Some("alpha")))?;
        let params = StabilityParams::new(alpha)
            .map_err(|e| RestoreError::new(Some("alpha"), e.to_string()))?;
        let max_explanations = r.u64().map_err(be(Some("max_explanations")))? as usize;
        let n_customers = r.u64().map_err(be(Some("customers")))?;
        // A customer block is at least 24 bytes; reject impossible
        // counts before reserving anything.
        if n_customers > (r.remaining() / 24) as u64 {
            return Err(RestoreError::new(
                Some("customers"),
                format!(
                    "customer count {n_customers} cannot fit in {} remaining bytes",
                    r.remaining()
                ),
            ));
        }
        let mut monitor =
            StabilityMonitor::new(spec, params).with_max_explanations(max_explanations);
        monitor.states.reserve(n_customers as usize);
        monitor.index.reserve(n_customers as usize);
        let mut prev: Option<CustomerId> = None;
        for _ in 0..n_customers {
            let customer = CustomerId::new(r.u64().map_err(be(Some("customer")))?);
            if prev.is_some_and(|p| p >= customer) {
                return Err(RestoreError::new(
                    Some("customer"),
                    format!("customer ids not strictly ascending at {customer}"),
                ));
            }
            prev = Some(customer);
            let current_window = r.u32().map_err(be(Some("current_window")))?;
            let windows = r.u32().map_err(be(Some("windows_observed")))?;
            let n_items = r.u32().map_err(be(Some("items")))? as usize;
            let n_pending = r.u32().map_err(be(Some("pending")))? as usize;
            if n_items > r.remaining() / 8 || n_pending > (r.remaining() - n_items * 8) / 4 {
                return Err(RestoreError::new(
                    Some("items"),
                    format!(
                        "{customer}: {n_items} items + {n_pending} pending cannot fit in {} \
                         remaining bytes",
                        r.remaining()
                    ),
                ));
            }
            let mut items = Vec::with_capacity(n_items);
            let mut counts = Vec::with_capacity(n_items);
            for _ in 0..n_items {
                items.push(ItemId::new(r.u32().map_err(be(Some("item")))?));
                counts.push(r.u32().map_err(be(Some("count")))?);
            }
            let tracker = SignificanceTracker::from_parts(params, windows, items, counts)
                .map_err(|m| RestoreError::new(Some("count"), format!("{customer}: {m}")))?;
            let mut pending = Vec::with_capacity(n_pending);
            for _ in 0..n_pending {
                pending.push(ItemId::new(r.u32().map_err(be(Some("pending")))?));
            }
            monitor.push_state(
                customer,
                CustomerState {
                    tracker,
                    current_window,
                    pending,
                },
            );
        }
        r.finish().map_err(be(None))?;
        Ok(monitor)
    }

    /// An alias of [`restore_bytes`](StabilityMonitor::restore_bytes),
    /// kept because the benchmark (`perfbench/src/trace.rs`) times
    /// restores by this name.
    pub fn restore_any(bytes: &[u8]) -> Result<StabilityMonitor, RestoreError> {
        StabilityMonitor::restore_bytes(bytes)
    }
}

/// Close a customer's current window. Its items are canonicalized in place
/// and then dropped: the next window's start in a fresh, small buffer.
fn close_one(
    customer: CustomerId,
    state: &mut CustomerState,
    max_explanations: usize,
    top: &mut Vec<LostProduct>,
) -> WindowClosed {
    let mut u = std::mem::take(&mut state.pending);
    u.sort_unstable();
    u.dedup();
    let k = WindowIndex::new(state.current_window);
    let point = state.tracker.close_window(k, &u, max_explanations, top);
    state.current_window += 1;
    WindowClosed {
        customer,
        point,
        explanation: WindowExplanation {
            window: k,
            lost: top.to_vec(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::from_ymd(y, m, day).unwrap()
    }

    fn monitor() -> StabilityMonitor {
        StabilityMonitor::new(WindowSpec::months(d(2012, 5, 1), 1), StabilityParams::PAPER)
    }

    fn b(raw: &[u32]) -> Basket {
        Basket::from_raw(raw)
    }

    #[test]
    fn same_window_receipts_accumulate() {
        let mut m = monitor();
        let c = CustomerId::new(1);
        assert!(m.ingest(c, d(2012, 5, 2), &b(&[1])).is_empty());
        assert!(m.ingest(c, d(2012, 5, 20), &b(&[2])).is_empty());
        let preview = m.preview(c).unwrap();
        assert_eq!(preview.window, WindowIndex::new(0));
        assert_eq!(preview.value, 1.0); // no history yet
    }

    #[test]
    fn crossing_boundary_closes_window() {
        let mut m = monitor();
        let c = CustomerId::new(1);
        m.ingest(c, d(2012, 5, 2), &b(&[1, 2]));
        let closed = m.ingest(c, d(2012, 6, 3), &b(&[1]));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].point.window, WindowIndex::new(0));
        assert_eq!(closed[0].point.value, 1.0);
    }

    #[test]
    fn gap_closes_multiple_windows() {
        let mut m = monitor();
        let c = CustomerId::new(1);
        m.ingest(c, d(2012, 5, 2), &b(&[1]));
        // Jump straight to August: closes May, June, July windows.
        let closed = m.ingest(c, d(2012, 8, 10), &b(&[1]));
        assert_eq!(closed.len(), 3);
        // June and July are empty windows: stability 0 (history exists).
        assert_eq!(closed[1].point.value, 0.0);
        assert_eq!(closed[2].point.value, 0.0);
        // Their explanation names the missing item 1.
        assert_eq!(
            closed[1].explanation.primary().unwrap().item,
            ItemId::new(1)
        );
    }

    #[test]
    fn matches_batch_series() {
        // Feed the same history through the monitor and the batch path.
        use attrition_store::CustomerWindows;
        let history: Vec<Vec<u32>> = vec![
            vec![1, 2],
            vec![1, 2],
            vec![1],
            vec![],
            vec![2, 3],
            vec![1, 2, 3],
        ];
        let c = CustomerId::new(9);

        let mut m = monitor();
        let mut online = Vec::new();
        for (month, items) in history.iter().enumerate() {
            if !items.is_empty() {
                let date = d(2012, 5, 5).add_months(month as i32);
                online.extend(m.ingest(c, date, &b(items)));
            }
        }
        online.extend(m.flush_until(d(2012, 11, 1))); // closes through Oct

        let spec = WindowSpec::months(d(2012, 5, 1), 1);
        let windows = CustomerWindows {
            customer: c,
            baskets: history.iter().map(|v| b(v)).collect(),
            trips: vec![1; history.len()],
            spend: vec![attrition_types::Cents(0); history.len()],
            last_purchase: vec![None; history.len()],
            spec,
        };
        let batch = crate::stability::stability_series(&windows, StabilityParams::PAPER);

        assert_eq!(online.len(), batch.len());
        for (o, bp) in online.iter().zip(&batch) {
            assert_eq!(o.point.window, bp.window);
            assert!(
                (o.point.value - bp.value).abs() < 1e-12,
                "window {}: online {} batch {}",
                bp.window,
                o.point.value,
                bp.value
            );
        }
    }

    #[test]
    fn receipts_before_origin_ignored() {
        let mut m = monitor();
        let c = CustomerId::new(1);
        assert!(m.ingest(c, d(2012, 4, 30), &b(&[1])).is_empty());
        assert_eq!(m.num_customers(), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_panics() {
        let mut m = monitor();
        let c = CustomerId::new(1);
        m.ingest(c, d(2012, 7, 1), &b(&[1]));
        m.ingest(c, d(2012, 5, 1), &b(&[1]));
    }

    #[test]
    fn multiple_customers_independent() {
        let mut m = monitor();
        m.ingest(CustomerId::new(1), d(2012, 5, 2), &b(&[1]));
        m.ingest(CustomerId::new(2), d(2012, 5, 2), &b(&[9]));
        let closed = m.ingest(CustomerId::new(1), d(2012, 6, 2), &b(&[1]));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].customer, CustomerId::new(1));
        // Customer 2 still pending.
        assert_eq!(
            m.preview(CustomerId::new(2)).unwrap().window,
            WindowIndex::new(0)
        );
        assert_eq!(m.num_customers(), 2);
    }

    #[test]
    fn flush_emits_in_customer_order() {
        let mut m = monitor();
        m.ingest(CustomerId::new(5), d(2012, 5, 2), &b(&[1]));
        m.ingest(CustomerId::new(2), d(2012, 5, 2), &b(&[2]));
        let closed = m.flush_until(d(2012, 7, 1));
        let ids: Vec<u64> = closed.iter().map(|c| c.customer.raw()).collect();
        // Two windows each (May, June), grouped per customer ascending.
        assert_eq!(ids, vec![2, 2, 5, 5]);
    }

    #[test]
    fn preview_reflects_partial_window() {
        let mut m = monitor();
        let c = CustomerId::new(1);
        m.ingest(c, d(2012, 5, 2), &b(&[1, 2]));
        m.ingest(c, d(2012, 6, 2), &b(&[1])); // closes May; June pending: {1}
        let preview = m.preview(c).unwrap();
        // History: {1,2} → S(1)=S(2)=2; present {1} → 2/4.
        assert!((preview.value - 0.5).abs() < 1e-12);
        assert_eq!(preview.window, WindowIndex::new(1));
    }

    #[test]
    fn unknown_customer_preview_none() {
        assert!(monitor().preview(CustomerId::new(3)).is_none());
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_future_outputs() {
        // Feed half a history, checkpoint, restore, feed the rest into
        // both the original and the restored monitor: identical outputs.
        let feed_first = |m: &mut StabilityMonitor| {
            m.ingest(CustomerId::new(1), d(2012, 5, 2), &b(&[1, 2]));
            m.ingest(CustomerId::new(1), d(2012, 6, 3), &b(&[1]));
            m.ingest(CustomerId::new(2), d(2012, 6, 10), &b(&[9]));
            m.ingest(CustomerId::new(1), d(2012, 7, 4), &b(&[2]));
        };
        let feed_rest = |m: &mut StabilityMonitor| -> Vec<WindowClosed> {
            let mut out = Vec::new();
            out.extend(m.ingest(CustomerId::new(1), d(2012, 9, 1), &b(&[1, 2])));
            out.extend(m.ingest(CustomerId::new(2), d(2012, 9, 5), &b(&[9, 10])));
            out.extend(m.flush_until(d(2012, 12, 1)));
            out
        };

        let mut original = monitor();
        feed_first(&mut original);
        let checkpoint = original.snapshot_bytes();

        let mut restored = StabilityMonitor::restore_bytes(&checkpoint).expect("restores");
        assert_eq!(restored.num_customers(), original.num_customers());
        // Previews agree immediately after restore.
        for c in [CustomerId::new(1), CustomerId::new(2)] {
            let a = original.preview(c).unwrap();
            let b = restored.preview(c).unwrap();
            assert_eq!(a.window, b.window);
            assert!((a.value - b.value).abs() < 1e-12);
        }

        let out_original = feed_rest(&mut original);
        let out_restored = feed_rest(&mut restored);
        assert_eq!(out_original.len(), out_restored.len());
        for (a, b) in out_original.iter().zip(&out_restored) {
            assert_eq!(a.customer, b.customer);
            assert_eq!(a.point.window, b.point.window);
            assert!((a.point.value - b.point.value).abs() < 1e-12);
            assert_eq!(a.explanation.lost.len(), b.explanation.lost.len());
            for (la, lb) in a.explanation.lost.iter().zip(&b.explanation.lost) {
                assert_eq!(la.item, lb.item);
                assert!((la.significance - lb.significance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(StabilityMonitor::restore_bytes(b"").is_err());
        assert!(StabilityMonitor::restore_bytes(b"not,a,checkpoint\n").is_err());
        // The text rendering is not an encoding anything restores.
        let text = monitor().snapshot();
        assert!(StabilityMonitor::restore_bytes(text.as_bytes()).is_err());
        // A valid header followed by a customer count the body cannot hold.
        let mut bad = monitor().snapshot_bytes();
        let n = bad.len();
        bad[n - 8..].copy_from_slice(&3u64.to_le_bytes());
        assert!(StabilityMonitor::restore_bytes(&bad).is_err());
    }

    #[test]
    fn restore_errors_name_the_field() {
        let e = StabilityMonitor::restore_bytes(b"").unwrap_err();
        assert_eq!(e.field, Some("magic"));
        assert!(e.to_string().contains("field `magic`"), "{e}");

        let mut m = monitor();
        m.ingest(CustomerId::new(1), d(2012, 5, 2), &b(&[3]));
        m.ingest(CustomerId::new(1), d(2012, 6, 2), &b(&[3]));
        let clean = m.snapshot_bytes();
        // Header: magic 8, origin 4, length kind 1 + value 4, alpha 8,
        // max_explanations 8, customers 8 = 41 bytes.
        let mut bad = clean.clone();
        bad[12] = 7;
        assert_eq!(
            StabilityMonitor::restore_bytes(&bad).unwrap_err().field,
            Some("length")
        );
        let mut bad = clean.clone();
        bad[17..25].copy_from_slice(&0.5f64.to_bits().to_le_bytes());
        assert_eq!(
            StabilityMonitor::restore_bytes(&bad).unwrap_err().field,
            Some("alpha")
        );
        // Customer block: id 8, current_window 4, windows_observed 4,
        // items 4, pending 4, then (item, count) pairs; a count above
        // the observed windows is named.
        let mut bad = clean;
        bad[41 + 24 + 4..41 + 24 + 8].copy_from_slice(&9u32.to_le_bytes());
        let e = StabilityMonitor::restore_bytes(&bad).unwrap_err();
        assert_eq!(e.field, Some("count"));
        assert!(e.to_string().contains("field `count`"), "{e}");
    }

    #[test]
    fn partition_routes_every_customer_and_preserves_state() {
        let mut m = monitor();
        for raw in 0..10u64 {
            m.ingest(CustomerId::new(raw), d(2012, 5, 2), &b(&[1, 2]));
            m.ingest(CustomerId::new(raw), d(2012, 6, 3), &b(&[1]));
        }
        let previews: Vec<_> = (0..10)
            .map(|raw| m.preview(CustomerId::new(raw)).unwrap())
            .collect();
        let parts = m.partition(3, |c| (c.raw() % 3) as usize);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(|p| p.num_customers()).sum::<usize>(), 10);
        for raw in 0..10u64 {
            let c = CustomerId::new(raw);
            let shard = &parts[(raw % 3) as usize];
            let p = shard.preview(c).unwrap();
            assert_eq!(p.window, previews[raw as usize].window);
            assert!((p.value - previews[raw as usize].value).abs() < 1e-15);
        }
    }

    #[test]
    fn empty_monitor_snapshot_roundtrips() {
        let m = monitor();
        let restored = StabilityMonitor::restore_bytes(&m.snapshot_bytes()).unwrap();
        assert_eq!(restored.num_customers(), 0);
        assert_eq!(restored.snapshot_bytes(), m.snapshot_bytes());
    }

    /// snapshot → restore → snapshot is byte-for-byte lossless on random
    /// ingest streams — the graceful-shutdown path of the serving layer
    /// depends on this (a restored server must write the same
    /// checkpoint it was started from if nothing else arrives).
    #[test]
    fn prop_snapshot_restore_snapshot_roundtrip() {
        use attrition_util::check::forall;

        forall(
            48,
            |rng| {
                // A random interleaved receipt stream: per-customer
                // chronological because it is globally date-sorted.
                let n_customers = 1 + rng.usize_below(6);
                let n_receipts = 1 + rng.usize_below(40);
                let mut stream: Vec<(u64, Date, Vec<u32>)> = (0..n_receipts)
                    .map(|_| {
                        let customer = rng.u64_below(n_customers as u64);
                        let date = d(2012, 5, 1).add_months(rng.i64_in(0, 11) as i32)
                            + rng.i64_in(0, 27) as i32;
                        let items: Vec<u32> = (0..rng.usize_below(6))
                            .map(|_| 1 + rng.next_u64() as u32 % 20)
                            .collect();
                        (customer, date, items)
                    })
                    .collect();
                stream.sort_by_key(|&(customer, date, _)| (date, customer));
                stream
            },
            |stream| {
                let mut m = monitor();
                for (customer, date, items) in stream {
                    m.ingest(CustomerId::new(*customer), *date, &b(items));
                }
                let snap1 = m.snapshot_bytes();
                let restored = StabilityMonitor::restore_bytes(&snap1).expect("snapshot restores");
                assert_eq!(
                    snap1,
                    restored.snapshot_bytes(),
                    "roundtrip changed the checkpoint"
                );
                assert_eq!(m.snapshot(), restored.snapshot());
                assert_eq!(restored.num_customers(), m.num_customers());
            },
        );
    }
}
