//! The month-by-month purchase simulator.
//!
//! Plays a population of [`CustomerProfile`]s over an observation period
//! into a columnar [`ReceiptStore`]: per month, each customer makes
//! `Poisson(rate × seasonality)` shopping trips on uniformly drawn days;
//! each trip's basket contains every core item that passes its per-trip
//! Bernoulli (with defection-dropped items at probability zero) plus
//! `Poisson(exploration)` catalog-popularity-distributed noise items. The
//! receipt total is the sum of unit prices.
//!
//! Per-customer streams are keyed by customer id, so a customer's entire
//! purchase history is invariant to the rest of the population — adding
//! customers to a scenario never changes existing histories.

use crate::profile::CustomerProfile;
use crate::seasonality::Seasonality;
use attrition_store::{ReceiptStore, ReceiptStoreBuilder};
use attrition_types::{Cents, Date, ItemId, Taxonomy};
use attrition_util::{Rng, Zipf};

/// Simulation clock and environment.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// First day of month 0.
    pub start: Date,
    /// Number of months to simulate.
    pub n_months: u32,
    /// Seasonal trip-rate modulation.
    pub seasonality: Seasonality,
    /// Zipf exponent of the exploration-item popularity distribution.
    pub exploration_zipf_s: f64,
    /// Master seed; per-customer streams are derived from it.
    pub seed: u64,
}

impl Simulator {
    /// A simulator with default exploration skew.
    pub fn new(start: Date, n_months: u32, seasonality: Seasonality, seed: u64) -> Simulator {
        Simulator {
            start,
            n_months,
            seasonality,
            exploration_zipf_s: 1.05,
            seed,
        }
    }

    /// Simulate every profile and build the receipt store.
    pub fn run(&self, profiles: &[CustomerProfile], taxonomy: &Taxonomy) -> ReceiptStore {
        assert!(taxonomy.num_products() > 0, "empty taxonomy");
        let exploration = Zipf::new(taxonomy.num_products(), self.exploration_zipf_s);
        // Rough pre-size: trips/month ≈ 4, so profiles × months × 4.
        let mut builder =
            ReceiptStoreBuilder::with_capacity(profiles.len() * self.n_months as usize * 4);
        for profile in profiles {
            self.simulate_customer(profile, taxonomy, &exploration, &mut builder);
        }
        builder.build()
    }

    /// Stream key for one customer: independent of population composition.
    fn customer_rng(&self, customer: attrition_types::CustomerId) -> Rng {
        Rng::seed_from_u64(
            self.seed
                .rotate_left(17)
                .wrapping_add(customer.raw().wrapping_mul(0xD6E8_FEB8_6659_FD93)),
        )
    }

    fn simulate_customer(
        &self,
        profile: &CustomerProfile,
        taxonomy: &Taxonomy,
        exploration: &Zipf,
        builder: &mut ReceiptStoreBuilder,
    ) {
        let mut rng = self.customer_rng(profile.customer);
        let mut items_buf: Vec<ItemId> = Vec::with_capacity(profile.preferred.len() + 4);
        // Brand state: the concrete product currently satisfying each core
        // preference; brand switching reassigns it within the segment.
        let mut current_brand: Vec<ItemId> = profile.preferred.iter().map(|p| p.item).collect();
        for month in 0..self.n_months {
            let month_start = self.start.add_months(month as i32);
            let month_end = self.start.add_months(month as i32 + 1);
            let ctx = MonthContext {
                taxonomy,
                exploration,
                month,
                month_start,
                days_in_month: (month_end - month_start) as u64,
                seasonal_factor: self.seasonality.factor(month_start.month()),
                trip_mult: 1.0,
                explore_mult: 1.0,
                extra_items: &[],
            };
            simulate_customer_month(
                profile,
                &ctx,
                &mut rng,
                &mut current_brand,
                &mut items_buf,
                builder,
            );
        }
    }
}

/// Everything one customer-month draw needs besides the customer state.
///
/// The scenario engine layers time-varying modifiers on top of the plain
/// simulator through this struct; with `trip_mult`/`explore_mult` at `1.0`
/// and no `extra_items` the draw sequence is bit-identical to
/// [`Simulator::run`] (multiplying a rate by exactly `1.0` changes no
/// bits, and empty extras consume no randomness) — the golden fig1
/// regression depends on that.
pub(crate) struct MonthContext<'a> {
    pub taxonomy: &'a Taxonomy,
    pub exploration: &'a Zipf,
    pub month: u32,
    pub month_start: Date,
    pub days_in_month: u64,
    pub seasonal_factor: f64,
    /// Multiplier on the trip rate (promotions, store closures).
    pub trip_mult: f64,
    /// Multiplier on the exploration rate (promotions).
    pub explore_mult: f64,
    /// Pooled household items appended after exploration, each passing
    /// its own per-trip Bernoulli (household co-shopping).
    pub extra_items: &'a [(ItemId, f64)],
}

/// Play one month of one customer: brand switching, `Poisson(rate)`
/// trips on uniform days, per-trip core Bernoullis plus exploration
/// noise, quantity draws for the till total. Returns the trip count.
pub(crate) fn simulate_customer_month(
    profile: &CustomerProfile,
    ctx: &MonthContext<'_>,
    rng: &mut Rng,
    current_brand: &mut [ItemId],
    items_buf: &mut Vec<ItemId>,
    builder: &mut ReceiptStoreBuilder,
) -> u64 {
    let month = ctx.month;
    if month >= profile.entry_month && profile.brand_switch_prob > 0.0 {
        for brand in current_brand.iter_mut() {
            if rng.bernoulli(profile.brand_switch_prob) {
                let segment = ctx
                    .taxonomy
                    .segment_of(*brand)
                    .expect("core items come from the taxonomy");
                let siblings = ctx.taxonomy.products_in(segment).expect("segment exists");
                if siblings.len() > 1 {
                    *brand = *rng.choose(siblings).expect("non-empty");
                }
            }
        }
    }
    let rate = profile.trip_rate_in_month(month) * ctx.seasonal_factor * ctx.trip_mult;
    let n_trips = rng.poisson(rate);
    for _ in 0..n_trips {
        let date = ctx.month_start + rng.u64_below(ctx.days_in_month) as i32;
        items_buf.clear();
        for (pref, &brand) in profile.preferred.iter().zip(current_brand.iter()) {
            if rng.bernoulli(pref.prob_in_month(month)) {
                items_buf.push(brand);
            }
        }
        let n_explore = rng.poisson(profile.exploration_rate * ctx.explore_mult);
        for _ in 0..n_explore {
            items_buf.push(ItemId::new(ctx.exploration.sample(rng) as u32));
        }
        for &(item, prob) in ctx.extra_items {
            if rng.bernoulli(prob) {
                items_buf.push(item);
            }
        }
        if items_buf.is_empty() {
            // A till receipt always has at least one line.
            items_buf.push(ItemId::new(ctx.exploration.sample(rng) as u32));
        }
        items_buf.sort_unstable();
        items_buf.dedup();
        // Baskets are item *sets* (the model ignores quantity), but
        // the till total reflects quantities: most lines are a
        // single unit, with an occasional multi-pack.
        let total: Cents = items_buf
            .iter()
            .map(|&i| {
                let quantity = 1 + rng.poisson(0.25) as i64;
                ctx.taxonomy.price_of(i).unwrap_or(Cents::ZERO) * quantity
            })
            .sum();
        builder.push_row(profile.customer, date, total, items_buf);
    }
    n_trips
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{generate_catalog, CatalogConfig};
    use crate::defection::DefectionPlan;
    use crate::population::{BehaviorConfig, Population, PopulationConfig};
    use attrition_types::CustomerId;

    fn taxonomy() -> Taxonomy {
        generate_catalog(&CatalogConfig::default(), &mut Rng::seed_from_u64(1))
    }

    fn start() -> Date {
        Date::from_ymd(2012, 5, 1).unwrap()
    }

    fn small_population(tax: &Taxonomy, n_loyal: usize, n_defectors: usize) -> Population {
        Population::generate(
            &PopulationConfig {
                n_loyal,
                n_defectors,
                behavior: BehaviorConfig::default(),
                defection: DefectionPlan::standard(6),
            },
            tax,
            3,
        )
    }

    #[test]
    fn receipts_inside_observation_period() {
        let tax = taxonomy();
        let pop = small_population(&tax, 5, 0);
        let sim = Simulator::new(start(), 12, Seasonality::grocery_default(), 42);
        let store = sim.run(&pop.profiles, &tax);
        assert!(store.num_receipts() > 0);
        let (lo, hi) = store.date_range().unwrap();
        assert!(lo >= start());
        assert!(hi < start().add_months(12));
    }

    #[test]
    fn trip_volume_tracks_rate() {
        let tax = taxonomy();
        let pop = small_population(&tax, 20, 0);
        let months = 12u32;
        let sim = Simulator::new(start(), months, Seasonality::flat(), 42);
        let store = sim.run(&pop.profiles, &tax);
        let expected: f64 = pop
            .profiles
            .iter()
            .map(|p| p.trips_per_month * months as f64)
            .sum();
        let actual = store.num_receipts() as f64;
        let ratio = actual / expected;
        assert!((0.9..1.1).contains(&ratio), "trip volume ratio {ratio}");
    }

    #[test]
    fn baskets_never_empty_and_totals_bounded_by_prices() {
        let tax = taxonomy();
        let pop = small_population(&tax, 5, 0);
        let sim = Simulator::new(start(), 6, Seasonality::flat(), 1);
        let store = sim.run(&pop.profiles, &tax);
        let mut saw_multipack = false;
        for r in store.receipts() {
            assert!(!r.items.is_empty());
            let unit_sum: Cents = r.items.iter().map(|&i| tax.price_of(i).unwrap()).sum();
            // Quantities are ≥ 1 per line, so totals are at least the unit
            // sum and rarely more than a few multiples of it.
            assert!(r.total >= unit_sum, "total below unit prices");
            assert!(r.total.raw() <= unit_sum.raw() * 6, "implausible total");
            saw_multipack |= r.total > unit_sum;
        }
        assert!(saw_multipack, "quantity sampling never fired");
    }

    #[test]
    fn deterministic_runs() {
        let tax = taxonomy();
        let pop = small_population(&tax, 5, 5);
        let sim = Simulator::new(start(), 8, Seasonality::grocery_default(), 7);
        let a = sim.run(&pop.profiles, &tax);
        let b = sim.run(&pop.profiles, &tax);
        assert_eq!(a.num_receipts(), b.num_receipts());
        for (ra, rb) in a.receipts().zip(b.receipts()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn histories_invariant_to_population_composition() {
        let tax = taxonomy();
        let pop_small = small_population(&tax, 3, 0);
        let pop_large = small_population(&tax, 10, 0);
        let sim = Simulator::new(start(), 6, Seasonality::flat(), 9);
        let store_small = sim.run(&pop_small.profiles, &tax);
        let store_large = sim.run(&pop_large.profiles, &tax);
        let c = CustomerId::new(2);
        let small_hist: Vec<_> = store_small
            .customer_receipts(c)
            .unwrap()
            .map(|r| (r.date, r.total))
            .collect();
        let large_hist: Vec<_> = store_large
            .customer_receipts(c)
            .unwrap()
            .map(|r| (r.date, r.total))
            .collect();
        assert_eq!(small_hist, large_hist);
    }

    #[test]
    fn defectors_shop_less_after_onset() {
        let tax = taxonomy();
        // Strong decay for a clear signal.
        let pop = Population::generate(
            &PopulationConfig {
                n_loyal: 0,
                n_defectors: 20,
                behavior: BehaviorConfig::default(),
                defection: DefectionPlan {
                    onset_month: 6,
                    ramp_months: 3,
                    keep_fraction: 0.1,
                    trip_rate_factor: 0.6,
                },
            },
            &tax,
            5,
        );
        let sim = Simulator::new(start(), 12, Seasonality::flat(), 11);
        let store = sim.run(&pop.profiles, &tax);
        let before = store
            .scan_date_range(start(), start().add_months(6))
            .count();
        let after = store
            .scan_date_range(start().add_months(6), start().add_months(12))
            .count();
        assert!(
            (after as f64) < before as f64 * 0.7,
            "before {before} after {after}"
        );
    }

    #[test]
    fn dropped_items_disappear_from_purchases() {
        let tax = taxonomy();
        let pop = Population::generate(
            &PopulationConfig {
                n_loyal: 0,
                n_defectors: 5,
                behavior: BehaviorConfig::default(),
                defection: DefectionPlan {
                    onset_month: 4,
                    ramp_months: 0, // everything drops exactly at month 4
                    keep_fraction: 0.0,
                    trip_rate_factor: 1.0,
                },
            },
            &tax,
            6,
        );
        let sim = Simulator::new(start(), 10, Seasonality::flat(), 13);
        let store = sim.run(&pop.profiles, &tax);
        let cutoff = start().add_months(4);
        // After the drop, a core item can only re-enter a basket through
        // exploration noise, so the mean core-item count per basket must
        // collapse (it cannot hit zero exactly — popular products are both
        // core and exploration-favored).
        let mut before = (0usize, 0usize); // (core occurrences, baskets)
        let mut after = (0usize, 0usize);
        for profile in &pop.profiles {
            let core: std::collections::HashSet<u32> =
                profile.preferred.iter().map(|p| p.item.raw()).collect();
            for r in store.customer_receipts(profile.customer).unwrap() {
                let overlap = r.items.iter().filter(|i| core.contains(&i.raw())).count();
                let slot = if r.date >= cutoff {
                    &mut after
                } else {
                    &mut before
                };
                slot.0 += overlap;
                slot.1 += 1;
            }
        }
        let rate_before = before.0 as f64 / before.1 as f64;
        let rate_after = after.0 as f64 / after.1 as f64;
        assert!(
            rate_after < rate_before * 0.1,
            "core rate before {rate_before:.2} vs after {rate_after:.2}"
        );
    }

    #[test]
    fn brand_switching_changes_products_not_segments() {
        let tax = taxonomy();
        let mut pop = small_population(&tax, 10, 0);
        for p in pop.profiles.iter_mut() {
            p.brand_switch_prob = 0.25; // aggressive for a clear signal
            p.exploration_rate = 0.0;
        }
        let sim = Simulator::new(start(), 18, Seasonality::flat(), 21);
        let store = sim.run(&pop.profiles, &tax);
        let mut switches = 0usize;
        for profile in &pop.profiles {
            // Count purchased products outside the original core item set
            // but inside a core segment.
            let core_items: std::collections::HashSet<u32> =
                profile.preferred.iter().map(|p| p.item.raw()).collect();
            let core_segments: std::collections::HashSet<u32> = profile
                .preferred
                .iter()
                .map(|p| tax.segment_of(p.item).unwrap().raw())
                .collect();
            for r in store.customer_receipts(profile.customer).unwrap() {
                for item in r.items {
                    let seg = tax.segment_of(*item).unwrap().raw();
                    if !core_items.contains(&item.raw()) && core_segments.contains(&seg) {
                        switches += 1;
                    }
                }
            }
        }
        assert!(
            switches > 50,
            "expected visible brand switching, saw {switches}"
        );
    }

    #[test]
    fn late_joiners_have_no_early_receipts() {
        let tax = taxonomy();
        let mut pop = small_population(&tax, 10, 0);
        for p in pop.profiles.iter_mut() {
            p.entry_month = 6;
        }
        let sim = Simulator::new(start(), 12, Seasonality::flat(), 23);
        let store = sim.run(&pop.profiles, &tax);
        let cutoff = start().add_months(6);
        assert!(store.num_receipts() > 0);
        for r in store.receipts() {
            assert!(r.date >= cutoff, "receipt before entry: {}", r.date);
        }
    }

    #[test]
    fn seasonality_shifts_volume() {
        let tax = taxonomy();
        let pop = small_population(&tax, 30, 0);
        let mut factors = [1.0; 12];
        factors[11] = 3.0; // December ×3
        let sim = Simulator::new(
            Date::from_ymd(2012, 11, 1).unwrap(),
            2, // November, December
            Seasonality::from_factors(factors),
            17,
        );
        let store = sim.run(&pop.profiles, &tax);
        let nov = store
            .scan_date_range(
                Date::from_ymd(2012, 11, 1).unwrap(),
                Date::from_ymd(2012, 12, 1).unwrap(),
            )
            .count();
        let dec = store
            .scan_date_range(
                Date::from_ymd(2012, 12, 1).unwrap(),
                Date::from_ymd(2013, 1, 1).unwrap(),
            )
            .count();
        assert!(
            dec as f64 > nov as f64 * 2.0,
            "december {dec} vs november {nov}"
        );
    }
}
