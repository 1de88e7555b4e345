//! Incremental item-significance tracking.
//!
//! For item `p` at window `k` the paper defines `S(p,k) = α^(c(k)−l(k))`
//! when `c(k) > 0` and `0` otherwise, where `c(k)` / `l(k)` count the
//! windows strictly before `k` that do / do not contain `p`. Since every
//! prior window falls in exactly one of the two groups, `l(k) = k − c(k)`
//! and
//!
//! ```text
//! S(p,k) = α^(2·c(k) − k)        (when c(k) > 0)
//! ```
//!
//! so the tracker stores one occurrence counter per item it has ever seen
//! plus the number of windows observed. Scoring is `O(1)` per item;
//! folding in a new window is `O(|u_k|)`.
//!
//! # The count-histogram kernel
//!
//! `S(p,k)` depends on `p` only through its occurrence count `c`, so the
//! stability denominator collapses to a sum over *counts* rather than
//! items:
//!
//! ```text
//! Σ_{p∈I} S(p,k) = Σ_{c≥1} hist[c] · α^(2c − k)
//! ```
//!
//! where `hist[c]` is the number of tracked items with exactly `c`
//! occurrences. The tracker maintains that histogram incrementally
//! (`O(|u_k|)` per [`observe_window`](SignificanceTracker::observe_window))
//! and [`total_significance`](SignificanceTracker::total_significance)
//! sums it in **ascending-`c` order** — `O(k)` per window instead of
//! `O(|I|)`, and one *canonical* summation order, so totals are
//! bit-identical across tracker instances, snapshot restores, thread
//! counts, and the batch/streaming/serving paths (a `HashMap`-order sum
//! would differ per instance: Rust randomizes the hash seed).
//!
//! All `α^e` evaluations go through a lazily-grown power table whose
//! entries are produced by `f64::powi`, so a lookup is bit-identical to
//! computing the power directly while the hot loop does no
//! transcendental work. See DESIGN.md §9 ("kernel complexity contract").

use crate::explanation::{rank_lost, LostProduct};
use crate::params::StabilityParams;
use crate::stability::StabilityPoint;
use attrition_types::{Basket, ItemId, WindowIndex};

/// Exponent clamp for `α^(2c−k)`: beyond ±1000 the value has long
/// under-/overflowed for any admissible α, and the clamp bounds the
/// power table.
const MAX_ABS_EXPONENT: u32 = 1_000;

/// Lazily-grown table of `α^e` for `e ∈ [-limit, limit]`.
///
/// Entries are computed with `f64::powi`, so a table lookup returns the
/// exact bits a direct `powi` call would — growing the table never
/// changes any score, it only removes the per-evaluation cost.
#[derive(Debug, Clone)]
struct PowerTable {
    alpha: f64,
    /// `pos[i] = α^i`.
    pos: Vec<f64>,
    /// `neg[i] = α^(−i)`.
    neg: Vec<f64>,
}

impl PowerTable {
    fn new(alpha: f64) -> PowerTable {
        PowerTable {
            alpha,
            pos: vec![1.0],
            neg: vec![1.0],
        }
    }

    /// Grow to cover every exponent of magnitude ≤ `magnitude` (clamped
    /// to [`MAX_ABS_EXPONENT`]). Amortized O(1) per window: called once
    /// per observed window with the window count.
    fn ensure(&mut self, magnitude: u32) {
        let m = magnitude.min(MAX_ABS_EXPONENT) as usize;
        while self.pos.len() <= m {
            self.pos.push(self.alpha.powi(self.pos.len() as i32));
        }
        while self.neg.len() <= m {
            self.neg.push(self.alpha.powi(-(self.neg.len() as i32)));
        }
    }

    /// `α^exponent`, clamped to the covered range. The caller guarantees
    /// (by construction: `|2c − k| ≤ k` and `ensure(k)` ran) that any
    /// in-range exponent is covered.
    #[inline]
    fn get(&self, exponent: i64) -> f64 {
        let e = exponent.clamp(-(MAX_ABS_EXPONENT as i64), MAX_ABS_EXPONENT as i64);
        if e >= 0 {
            self.pos[e as usize]
        } else {
            self.neg[-e as usize]
        }
    }
}

/// Incremental significance state for one customer.
///
/// Usage per window `k`: first *query* (`significance`,
/// `total_significance`, …) — the answers are with respect to the windows
/// observed so far, i.e. those strictly before `k` — then
/// [`observe_window`](SignificanceTracker::observe_window) with `u_k`.
///
/// ```
/// use attrition_core::{SignificanceTracker, StabilityParams};
/// use attrition_types::{Basket, ItemId};
///
/// let mut tracker = SignificanceTracker::new(StabilityParams::PAPER);
/// tracker.observe_window(&Basket::from_raw(&[1, 2]));
/// tracker.observe_window(&Basket::from_raw(&[1]));
/// // Item 1 in both windows: S = 2^(2-0) = 4; item 2 in one of two: 2^0.
/// assert_eq!(tracker.significance(ItemId::new(1)), 4.0);
/// assert_eq!(tracker.significance(ItemId::new(2)), 1.0);
/// assert_eq!(tracker.total_significance(), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct SignificanceTracker {
    params: StabilityParams,
    /// Tracked item ids, strictly ascending. Parallel to `counts`: the
    /// tracker is two flat sorted columns rather than a hash map, so a
    /// million resident customers cost two tight `Vec`s each (~12 bytes
    /// per tracked item) instead of a `HashMap`'s control bytes, padded
    /// buckets, and load-factor slack. Lookups are binary searches;
    /// folding a window is a two-pointer merge (baskets are sorted).
    items: Vec<ItemId>,
    /// `c` per tracked item (always ≥ 1), parallel to `items`.
    counts: Vec<u32>,
    /// Number of windows folded in so far (`k`).
    windows: u32,
    /// `hist[c]` = number of tracked items with exactly `c` occurrences
    /// (`c ≥ 1`; index 0 is unused and stays 0). Trailing zero buckets
    /// are trimmed, so `hist.len() − 1` is the largest live count.
    hist: Vec<u32>,
    /// `α^e` lookups for the hot loop; covers `±min(windows, 1000)`.
    powers: PowerTable,
}

impl SignificanceTracker {
    /// Fresh tracker (zero windows observed).
    pub fn new(params: StabilityParams) -> SignificanceTracker {
        SignificanceTracker {
            params,
            items: Vec::new(),
            counts: Vec::new(),
            windows: 0,
            hist: Vec::new(),
            powers: PowerTable::new(params.alpha),
        }
    }

    /// Rebuild a tracker directly from its sufficient statistics: the
    /// window count plus sorted `(item, count)` columns. This is the
    /// checkpoint-restore fast path — it validates the invariants the
    /// incremental path maintains by construction and builds the count
    /// histogram in one pass, instead of replaying windows.
    ///
    /// Errors (by message) when `items` is not strictly ascending, the
    /// columns differ in length, or any count is outside `1..=windows`.
    pub(crate) fn from_parts(
        params: StabilityParams,
        windows: u32,
        items: Vec<ItemId>,
        counts: Vec<u32>,
    ) -> Result<SignificanceTracker, String> {
        if items.len() != counts.len() {
            return Err(format!(
                "item column has {} entries but count column has {}",
                items.len(),
                counts.len()
            ));
        }
        let mut hist: Vec<u32> = Vec::new();
        for (i, (&item, &c)) in items.iter().zip(&counts).enumerate() {
            if i > 0 && items[i - 1] >= item {
                return Err(format!("item ids not strictly ascending at {item}"));
            }
            if c == 0 || c > windows {
                return Err(format!(
                    "occurrence count {c} for {item} outside 1..={windows}"
                ));
            }
            if hist.len() <= c as usize {
                hist.resize(c as usize + 1, 0);
            }
            hist[c as usize] += 1;
        }
        let mut powers = PowerTable::new(params.alpha);
        powers.ensure(windows);
        Ok(SignificanceTracker {
            params,
            items,
            counts,
            windows,
            hist,
            powers,
        })
    }

    /// Heap bytes held by this tracker (capacity, not length — what the
    /// allocator actually charges). Used by the capacity bench.
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<ItemId>()
            + self.counts.capacity() * std::mem::size_of::<u32>()
            + self.hist.capacity() * std::mem::size_of::<u32>()
            + (self.powers.pos.capacity() + self.powers.neg.capacity()) * std::mem::size_of::<f64>()
    }

    /// The α parameter in use.
    pub fn params(&self) -> StabilityParams {
        self.params
    }

    /// Number of windows observed so far (`k`).
    pub fn windows_observed(&self) -> u32 {
        self.windows
    }

    /// Number of distinct items ever observed.
    pub fn num_tracked(&self) -> usize {
        self.items.len()
    }

    /// `c(k)` for an item.
    pub fn occurrences(&self, item: ItemId) -> u32 {
        match self.items.binary_search(&item) {
            Ok(i) => self.counts[i],
            Err(_) => 0,
        }
    }

    /// `S(p, k)` where `k` is the current window count.
    pub fn significance(&self, item: ItemId) -> f64 {
        self.significance_of_count(self.occurrences(item))
    }

    /// `S` of any item with occurrence count `c` at the current window
    /// count: `α^(2c − k)` for `c > 0`, else 0. A power-table lookup —
    /// bit-identical to `alpha.powi((2c − k).clamp(-1000, 1000))`.
    #[inline]
    pub fn significance_of_count(&self, c: u32) -> f64 {
        if c == 0 {
            return 0.0;
        }
        // exponent = c − l = 2c − k; |exponent| ≤ k, which the power
        // table covers (grown once per observed window).
        self.powers.get(2 * c as i64 - self.windows as i64)
    }

    /// `Σ_{p∈I} S(p,k)` — the stability denominator. Items never bought
    /// contribute zero, so the sum ranges over tracked items.
    ///
    /// Computed from the count histogram as `Σ_{c≥1} hist[c]·α^(2c−k)`
    /// in ascending-`c` order: `O(k)` regardless of repertoire size, and
    /// the summation order is canonical, so the result is bit-identical
    /// across tracker instances holding the same state (independent
    /// builds, snapshot restores, any thread count).
    pub fn total_significance(&self) -> f64 {
        let k = self.windows as i64;
        let mut total = 0.0;
        for (c, &n) in self.hist.iter().enumerate().skip(1) {
            if n > 0 {
                total += n as f64 * self.powers.get(2 * c as i64 - k);
            }
        }
        total
    }

    /// Reference implementation of
    /// [`total_significance`](SignificanceTracker::total_significance):
    /// per-item `powi` recomputation in item order — the pre-histogram
    /// kernel, `O(|I|)` with a `powi` per item. Kept only as the
    /// baseline for the tracked kernel benchmark (`kernel_bench`) and
    /// the equivalence property tests; no production path calls it.
    pub fn total_significance_naive(&self) -> f64 {
        self.counts
            .iter()
            .map(|&c| {
                let exponent = 2 * c as i64 - self.windows as i64;
                self.params.alpha.powi(
                    exponent.clamp(-(MAX_ABS_EXPONENT as i64), MAX_ABS_EXPONENT as i64) as i32,
                )
            })
            .sum()
    }

    /// The count histogram: `hist[c]` = number of tracked items with
    /// exactly `c` occurrences (index 0 unused). Invariants (asserted by
    /// property tests): `Σ_{c≥1} hist[c] == num_tracked()`, the
    /// histogram matches the per-item counts, and trailing buckets are
    /// nonzero (the slice is trimmed).
    pub fn count_histogram(&self) -> &[u32] {
        &self.hist
    }

    /// `Σ_{p∈u} S(p,k)` — the stability numerator for a window whose item
    /// set is `u`. Items of `u` not seen before contribute zero.
    pub fn present_significance(&self, u: &Basket) -> f64 {
        u.iter().map(|item| self.significance(item)).sum()
    }

    /// Iterate over `(item, c, l, S(p,k))` of every tracked item, in
    /// ascending item-id order.
    pub fn tracked_items(&self) -> impl Iterator<Item = (ItemId, u32, u32, f64)> + '_ {
        self.items
            .iter()
            .zip(&self.counts)
            .map(move |(&item, &c)| (item, c, self.windows - c, self.significance_of_count(c)))
    }

    /// The close step of the batch engine and the streaming monitor: score
    /// window `k` (sorted, deduplicated items `u`), leave its `max_lost`
    /// most significant absent items in `top`, most significant first, then
    /// fold `u` in. `top` is the caller's scratch, reused across windows.
    pub fn close_window(
        &mut self,
        k: WindowIndex,
        u: &[ItemId],
        max_lost: usize,
        top: &mut Vec<LostProduct>,
    ) -> StabilityPoint {
        let point = self.score_window(k, u, max_lost, top);
        self.observe_sorted(u);
        point
    }

    /// Score `u` in one walk of the item and count columns: present items
    /// add to the numerator in item order; absent ones are offered to a
    /// `max_lost`-slot list in [`rank_lost`] order, where (arriving in item
    /// order) a tie never displaces a kept entry. Only survivors get shares.
    pub(crate) fn score_window(
        &self,
        k: WindowIndex,
        u: &[ItemId],
        max_lost: usize,
        top: &mut Vec<LostProduct>,
    ) -> StabilityPoint {
        debug_assert!(u.windows(2).all(|w| w[0] < w[1]), "u must be sorted");
        top.clear();
        let total = self.total_significance();
        // An empty window's numerator stays −0.0, as `Iterator::sum` (which
        // folds from −0.0) has always made it; any other starts at +0.0.
        let mut present = if u.is_empty() { -0.0 } else { 0.0 };
        let mut j = 0;
        for (&item, &c) in self.items.iter().zip(&self.counts) {
            while j < u.len() && u[j] < item {
                j += 1;
            }
            if j < u.len() && u[j] == item {
                present += self.significance_of_count(c);
                j += 1;
            } else if max_lost > 0 {
                let lost = LostProduct {
                    item,
                    significance: self.significance_of_count(c),
                    share: 0.0,
                };
                let at = top.partition_point(|kept| rank_lost(kept, &lost).is_lt());
                if at < max_lost {
                    top.truncate(max_lost - 1);
                    top.insert(at, lost);
                }
            }
        }
        if total > 0.0 {
            for lost in top.iter_mut() {
                lost.share = lost.significance / total;
            }
        }
        StabilityPoint {
            window: k,
            value: if total > 0.0 { present / total } else { 1.0 },
            present_significance: present,
            total_significance: total,
        }
    }

    /// Fold window `k`'s item set into the counters (advancing `k` to
    /// `k + 1`). Call *after* scoring the window. `O(|u_k| + |I|)` worst
    /// case, but a window that introduces no new items — the steady
    /// state of a repeat shopper — is a pure in-place two-pointer sweep
    /// with no allocation or element movement. Baskets are sorted and
    /// deduplicated by construction, which is what makes the merge
    /// linear. The power table grows to cover the new window count
    /// (amortized O(1)).
    pub fn observe_window(&mut self, u: &Basket) {
        self.observe_sorted(u.items());
    }

    fn observe_sorted(&mut self, incoming: &[ItemId]) {
        // Count basket items not yet tracked with one forward sweep.
        let mut missing = 0usize;
        {
            let mut i = 0;
            for &item in incoming {
                while i < self.items.len() && self.items[i] < item {
                    i += 1;
                }
                if i < self.items.len() && self.items[i] == item {
                    i += 1;
                } else {
                    missing += 1;
                }
            }
        }
        if missing == 0 {
            // Every basket item is already tracked: bump counts in place.
            let mut i = 0;
            for &item in incoming {
                while self.items[i] < item {
                    i += 1;
                }
                let old = self.counts[i];
                self.counts[i] = old + 1;
                self.hist_remove(old);
                self.hist_insert(old + 1);
                i += 1;
            }
        } else {
            // Merge from the back so existing entries shift at most once.
            let old_len = self.items.len();
            self.items.resize(old_len + missing, ItemId::new(0));
            self.counts.resize(old_len + missing, 0);
            let mut w = old_len + missing;
            let mut r = old_len;
            let mut b = incoming.len();
            while b > 0 {
                let item = incoming[b - 1];
                while r > 0 && self.items[r - 1] > item {
                    w -= 1;
                    self.items[w] = self.items[r - 1];
                    self.counts[w] = self.counts[r - 1];
                    r -= 1;
                }
                w -= 1;
                if r > 0 && self.items[r - 1] == item {
                    let old = self.counts[r - 1];
                    self.items[w] = item;
                    self.counts[w] = old + 1;
                    self.hist_remove(old);
                    self.hist_insert(old + 1);
                    r -= 1;
                } else {
                    self.items[w] = item;
                    self.counts[w] = 1;
                    self.hist_insert(1);
                }
                b -= 1;
            }
            debug_assert_eq!(w, r, "merge must consume exactly the gap");
        }
        self.windows += 1;
        self.powers.ensure(self.windows);
    }

    /// Drop one item from bucket `c` (no-op for `c == 0`).
    #[inline]
    fn hist_remove(&mut self, c: u32) {
        if c > 0 {
            self.hist[c as usize] -= 1;
            while self.hist.last() == Some(&0) {
                self.hist.pop();
            }
        }
    }

    /// Add one item to bucket `c` (no-op for `c == 0`).
    #[inline]
    fn hist_insert(&mut self, c: u32) {
        if c > 0 {
            let c = c as usize;
            if self.hist.len() <= c {
                self.hist.resize(c + 1, 0);
            }
            self.hist[c] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_util::check::{forall, gen_vec};
    use attrition_util::Rng;

    fn b(raw: &[u32]) -> Basket {
        Basket::from_raw(raw)
    }

    fn tracker() -> SignificanceTracker {
        SignificanceTracker::new(StabilityParams::PAPER)
    }

    #[test]
    fn fresh_tracker_all_zero() {
        let t = tracker();
        assert_eq!(t.windows_observed(), 0);
        assert_eq!(t.significance(ItemId::new(1)), 0.0);
        assert_eq!(t.total_significance(), 0.0);
        assert_eq!(t.num_tracked(), 0);
    }

    #[test]
    fn single_item_every_window() {
        let mut t = tracker();
        for k in 1..=5u32 {
            t.observe_window(&b(&[7]));
            // After k windows all containing the item: c=k, l=0, S=2^k.
            assert_eq!(t.occurrences(ItemId::new(7)), k);
            assert_eq!(t.significance(ItemId::new(7)), 2f64.powi(k as i32));
        }
    }

    #[test]
    fn absence_decays_significance() {
        let mut t = tracker();
        t.observe_window(&b(&[7])); // c=1, k=1 → S = 2^1
        assert_eq!(t.significance(ItemId::new(7)), 2.0);
        t.observe_window(&b(&[])); // c=1, k=2 → S = 2^0
        assert_eq!(t.significance(ItemId::new(7)), 1.0);
        t.observe_window(&b(&[])); // c=1, k=3 → S = 2^-1
        assert_eq!(t.significance(ItemId::new(7)), 0.5);
    }

    #[test]
    fn unseen_item_zero_even_after_windows() {
        let mut t = tracker();
        t.observe_window(&b(&[1]));
        t.observe_window(&b(&[1]));
        assert_eq!(t.significance(ItemId::new(99)), 0.0);
    }

    #[test]
    fn matches_paper_definition_directly() {
        // Direct check against the c/l definition on a mixed history.
        let history = [
            vec![1u32, 2],
            vec![1],
            vec![2, 3],
            vec![1, 2],
            vec![],
            vec![1],
        ];
        let mut t = tracker();
        for u in &history {
            t.observe_window(&b(u));
        }
        let k = history.len() as i32;
        for item in [1u32, 2, 3, 4] {
            let c = history.iter().filter(|u| u.contains(&item)).count() as i32;
            let l = k - c;
            let expected = if c > 0 { 2f64.powi(c - l) } else { 0.0 };
            assert_eq!(
                t.significance(ItemId::new(item)),
                expected,
                "item {item}: c={c} l={l}"
            );
        }
    }

    #[test]
    fn totals_and_presence() {
        let mut t = tracker();
        t.observe_window(&b(&[1, 2]));
        t.observe_window(&b(&[1]));
        // k=2: S(1)=2^2=4, S(2)=2^0=1.
        assert_eq!(t.total_significance(), 5.0);
        assert_eq!(t.present_significance(&b(&[1])), 4.0);
        assert_eq!(t.present_significance(&b(&[2])), 1.0);
        assert_eq!(t.present_significance(&b(&[1, 2, 99])), 5.0);
        assert_eq!(t.present_significance(&b(&[])), 0.0);
    }

    #[test]
    fn tracked_items_report() {
        let mut t = tracker();
        t.observe_window(&b(&[1, 2]));
        t.observe_window(&b(&[2]));
        let mut rows: Vec<(u32, u32, u32, f64)> = t
            .tracked_items()
            .map(|(i, c, l, s)| (i.raw(), c, l, s))
            .collect();
        rows.sort_by_key(|r| r.0);
        assert_eq!(rows, vec![(1, 1, 1, 1.0), (2, 2, 0, 4.0)]);
    }

    #[test]
    fn long_absence_underflows_to_zero_not_panic() {
        let mut t = tracker();
        t.observe_window(&b(&[5]));
        for _ in 0..5000 {
            t.observe_window(&b(&[]));
        }
        let s = t.significance(ItemId::new(5));
        assert!((0.0..1e-300).contains(&s), "significance {s}");
        assert!(t.total_significance().is_finite());
    }

    #[test]
    fn alpha_parameter_used() {
        let mut t = SignificanceTracker::new(StabilityParams::new(3.0).unwrap());
        t.observe_window(&b(&[1]));
        t.observe_window(&b(&[1]));
        assert_eq!(t.significance(ItemId::new(1)), 9.0);
    }

    fn gen_history(
        rng: &mut Rng,
        item_bound: u64,
        max_items: usize,
        max_len: usize,
    ) -> Vec<Vec<u32>> {
        gen_vec(rng, 1, max_len, |r| {
            gen_vec(r, 0, max_items, |rr| rr.u64_below(item_bound) as u32)
        })
    }

    /// Significance is monotone in c for fixed k: more occurrences ⇒
    /// at least as significant.
    #[test]
    fn monotone_in_occurrences() {
        forall(
            256,
            |rng| gen_history(rng, 6, 3, 11),
            |histories| {
                let mut t = tracker();
                for u in histories {
                    t.observe_window(&b(u));
                }
                let mut rows: Vec<(u32, f64)> = t
                    .tracked_items()
                    .filter(|(_, c, _, _)| *c > 0)
                    .map(|(_, c, _, s)| (c, s))
                    .collect();
                rows.sort_by_key(|r| r.0);
                for pair in rows.windows(2) {
                    assert!(
                        pair[1].1 >= pair[0].1,
                        "c={} S={} vs c={} S={}",
                        pair[0].0,
                        pair[0].1,
                        pair[1].0,
                        pair[1].1
                    );
                }
            },
        );
    }

    /// total == Σ significance over tracked items, and present ≤ total.
    #[test]
    fn totals_consistent() {
        forall(
            256,
            |rng| {
                (
                    gen_history(rng, 8, 4, 9),
                    gen_vec(rng, 0, 4, |r| r.u64_below(8) as u32),
                )
            },
            |(histories, probe)| {
                let mut t = tracker();
                for u in histories {
                    t.observe_window(&b(u));
                }
                let manual: f64 = t.tracked_items().map(|(_, _, _, s)| s).sum();
                assert!((t.total_significance() - manual).abs() < 1e-9);
                let present = t.present_significance(&b(probe));
                assert!(present <= t.total_significance() + 1e-9);
                assert!(present >= 0.0);
            },
        );
    }

    /// Histogram invariants on arbitrary histories, for trackers built
    /// both by observing windows and by the restore path
    /// ([`SignificanceTracker::from_parts`] over edited count columns):
    /// `Σ_{c≥1} hist[c]` equals the tracked-item count, the histogram
    /// matches the per-item counts, and trailing buckets are trimmed.
    #[test]
    fn histogram_consistent_with_counts() {
        forall(
            256,
            |rng| {
                let history = gen_history(rng, 10, 5, 12);
                // Optional count edits, rebuilt through from_parts.
                let edits = gen_vec(rng, 0, 4, |r| {
                    (r.u64_below(10) as u32, r.u64_below(4) as u32)
                });
                (history, edits)
            },
            |(history, edits)| {
                let mut t = tracker();
                for u in history {
                    t.observe_window(&b(u));
                }
                if !edits.is_empty() {
                    let mut columns: std::collections::BTreeMap<ItemId, u32> =
                        t.tracked_items().map(|(item, c, _, _)| (item, c)).collect();
                    for &(item, c) in edits {
                        match c.min(t.windows_observed()) {
                            0 => columns.remove(&ItemId::new(item)),
                            c => columns.insert(ItemId::new(item), c),
                        };
                    }
                    t = SignificanceTracker::from_parts(
                        StabilityParams::PAPER,
                        t.windows_observed(),
                        columns.keys().copied().collect(),
                        columns.values().copied().collect(),
                    )
                    .expect("edited columns stay valid");
                }
                let hist = t.count_histogram();
                // Rebuild the histogram from the per-item counts.
                let mut expected = vec![0u32; hist.len()];
                for (_, c, _, _) in t.tracked_items() {
                    assert!(c >= 1, "tracked items always have c ≥ 1");
                    assert!(
                        (c as usize) < expected.len(),
                        "count {c} outside histogram of length {}",
                        hist.len()
                    );
                    expected[c as usize] += 1;
                }
                assert_eq!(hist, expected, "histogram diverged from counts");
                assert_eq!(
                    hist.iter().skip(1).map(|&n| n as u64).sum::<u64>(),
                    t.num_tracked() as u64,
                    "Σ hist[c] must equal num_tracked"
                );
                if let Some(last) = hist.last() {
                    assert!(*last > 0, "trailing zero bucket not trimmed");
                }
            },
        );
    }

    /// The histogram total is bit-identical (0 ULP) to the naive
    /// per-item sum when both group items by count and sum in
    /// ascending-`c` order, and agrees with the hash-map-order naive
    /// sum within floating-point tolerance.
    #[test]
    fn histogram_total_matches_naive_ascending_sum() {
        forall(
            256,
            |rng| gen_history(rng, 12, 6, 14),
            |history| {
                let mut t = tracker();
                for u in history {
                    t.observe_window(&b(u));

                    // Naive ascending-c reference, rebuilt from the
                    // per-item counts each window.
                    let mut counts: Vec<u32> = t.tracked_items().map(|(_, c, _, _)| c).collect();
                    counts.sort_unstable();
                    let mut naive = 0.0f64;
                    let mut i = 0;
                    while i < counts.len() {
                        let c = counts[i];
                        let run = counts[i..].iter().take_while(|&&x| x == c).count();
                        naive += run as f64 * t.significance_of_count(c);
                        i += run;
                    }
                    assert_eq!(
                        t.total_significance().to_bits(),
                        naive.to_bits(),
                        "ascending-c sums must be bit-identical: {} vs {naive}",
                        t.total_significance()
                    );
                    // Hash-map order (the old kernel) agrees within ULPs.
                    assert!(
                        (t.total_significance() - t.total_significance_naive()).abs()
                            <= 1e-9 * t.total_significance().max(1.0),
                        "histogram {} vs naive {}",
                        t.total_significance(),
                        t.total_significance_naive()
                    );
                }
            },
        );
    }

    /// Two independently-built trackers (distinct hash seeds) fed the
    /// same history produce bit-identical totals at every window — the
    /// determinism the histogram's canonical order buys.
    #[test]
    fn independently_built_trackers_bit_identical() {
        forall(
            128,
            |rng| gen_history(rng, 10, 5, 12),
            |history| {
                let mut a = tracker();
                let mut b_ = tracker();
                for u in history {
                    assert_eq!(
                        a.total_significance().to_bits(),
                        b_.total_significance().to_bits()
                    );
                    a.observe_window(&b(u));
                    b_.observe_window(&b(u));
                }
                assert_eq!(
                    a.total_significance().to_bits(),
                    b_.total_significance().to_bits()
                );
            },
        );
    }

    /// Table-backed significance matches a direct `powi` computation
    /// bit-for-bit, for arbitrary (valid) α.
    #[test]
    fn power_table_matches_powi() {
        forall(
            128,
            |rng| (rng.f64_in(1.01, 8.0), gen_history(rng, 6, 3, 10)),
            |(alpha, history)| {
                let mut t = SignificanceTracker::new(StabilityParams::new(*alpha).unwrap());
                for u in history {
                    t.observe_window(&b(u));
                }
                let k = t.windows_observed() as i64;
                for (_, c, _, s) in t.tracked_items() {
                    let e = (2 * c as i64 - k).clamp(-1_000, 1_000) as i32;
                    assert_eq!(
                        s.to_bits(),
                        alpha.powi(e).to_bits(),
                        "α={alpha} c={c} k={k}"
                    );
                }
            },
        );
    }

    /// The recurrence the paper's S(p,k) = α^(c−l) obeys, checked on
    /// arbitrary histories for an arbitrary probe item:
    ///
    /// 1. S is exactly 0 until the first window containing p;
    /// 2. a window containing p strictly increases S;
    /// 3. a window missing p (after the first purchase) strictly decays
    ///    S but never takes it below 0.
    #[test]
    fn recurrence_follows_purchases() {
        forall(
            512,
            |rng| {
                let probe = rng.u64_below(4) as u32;
                (probe, gen_history(rng, 4, 3, 16))
            },
            |(probe, histories)| {
                let item = ItemId::new(*probe);
                let mut t = tracker();
                let mut seen = false;
                let mut prev = t.significance(item);
                assert_eq!(prev, 0.0, "fresh tracker must score 0");
                for u in histories {
                    let contains = u.contains(probe);
                    t.observe_window(&b(u));
                    let s = t.significance(item);
                    seen |= contains;
                    if !seen {
                        assert_eq!(s, 0.0, "no purchase yet, S must stay 0");
                    } else if contains {
                        assert!(s > prev, "purchase must raise S: {prev} -> {s}");
                    } else {
                        assert!(s >= 0.0, "S must never go negative: {s}");
                        assert!(s < prev, "absence must decay S: {prev} -> {s}");
                    }
                    prev = s;
                }
            },
        );
    }
}
