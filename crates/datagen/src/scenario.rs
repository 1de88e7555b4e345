//! End-to-end dataset scenarios.
//!
//! A [`ScenarioConfig`] bundles every generator knob; [`generate`] runs
//! catalog → population → simulation and returns the full
//! [`GeneratedDataset`]. [`ScenarioConfig::paper_default`] mirrors the
//! paper's setting: observation from May 2012, 28 months (through August
//! 2014), defection onset at month 18 (Figure 1's vertical line), balanced
//! loyal/defector cohorts.
//!
//! [`figure2_customer`] builds the scripted defector of the paper's
//! Figure 2: a customer who stops buying **coffee** in month 20 and
//! **milk, sponges and cheese** in month 22.

use crate::agents::{AgentConfig, AgentPopulation};
use crate::catalog::{generate_catalog, CatalogConfig};
use crate::defection::DefectionPlan;
use crate::events::{Actor, DefectMode, Event, EventKind, EventQueue, Phase};
use crate::labels::{Cohort, DefectionStyle, GroundTruth, LabelSet};
use crate::population::{BehaviorConfig, Population, PopulationConfig};
use crate::profile::{CustomerProfile, PreferredItem, TripDecay};
use crate::seasonality::Seasonality;
use crate::simulate::{simulate_customer_month, MonthContext, Simulator};
use attrition_store::{ReceiptStore, ReceiptStoreBuilder, WindowSpec};
use attrition_types::{CustomerId, Date, ItemId, Taxonomy};
use attrition_util::{Rng, Zipf};

/// Full configuration of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed.
    pub seed: u64,
    /// First day of the observation period.
    pub start: Date,
    /// Observation length in months.
    pub n_months: u32,
    /// Loyal cohort size.
    pub n_loyal: usize,
    /// Defector cohort size.
    pub n_defectors: usize,
    /// Month (0-based) the defectors' attrition starts.
    pub onset_month: u32,
    /// Catalog generator knobs.
    pub catalog: CatalogConfig,
    /// Customer behavior knobs.
    pub behavior: BehaviorConfig,
    /// Defection plan template (its `onset_month` is overwritten by
    /// `self.onset_month`).
    pub defection: DefectionPlan,
    /// Seasonality profile.
    pub seasonality: Seasonality,
}

impl ScenarioConfig {
    /// The paper-shaped default: May 2012 start, 28 months, onset at
    /// month 18, balanced cohorts of 600, default catalog/behavior.
    ///
    /// The paper's population is 6M customers; 600+600 is enough for
    /// stable AUROC estimates while keeping every experiment laptop-fast.
    /// Scale `n_loyal`/`n_defectors` up freely — the scalability bench
    /// does.
    pub fn paper_default() -> ScenarioConfig {
        ScenarioConfig {
            seed: 0x00A7_7121_7102,
            start: Date::from_ymd(2012, 5, 1).expect("valid date"),
            n_months: 28,
            n_loyal: 600,
            n_defectors: 600,
            onset_month: 18,
            catalog: CatalogConfig::default(),
            behavior: BehaviorConfig::default(),
            defection: DefectionPlan::standard(18),
            seasonality: Seasonality::grocery_default(),
        }
    }

    /// A small, fast scenario for tests and examples (60+60 customers,
    /// 16 months, onset at month 10, 40-segment catalog).
    pub fn small() -> ScenarioConfig {
        ScenarioConfig {
            seed: 7,
            start: Date::from_ymd(2012, 5, 1).expect("valid date"),
            n_months: 16,
            n_loyal: 60,
            n_defectors: 60,
            onset_month: 10,
            catalog: CatalogConfig {
                n_segments: 40,
                mean_products_per_segment: 5.0,
                ..CatalogConfig::default()
            },
            behavior: BehaviorConfig::default(),
            defection: DefectionPlan::standard(10),
            seasonality: Seasonality::grocery_default(),
        }
    }

    /// The paper's window grid for this scenario: `w_months`-month
    /// windows anchored at the observation start.
    pub fn window_spec(&self, w_months: u32) -> WindowSpec {
        WindowSpec::months(self.start, w_months)
    }

    /// Number of `w_months`-month windows in the observation period.
    pub fn num_windows(&self, w_months: u32) -> u32 {
        self.n_months.div_ceil(w_months)
    }

    /// The window containing the defection onset.
    pub fn onset_window(&self, w_months: u32) -> u32 {
        self.onset_month / w_months
    }

    /// Validate the configuration's cross-field invariants.
    ///
    /// # Errors
    /// Returns the first violated invariant. [`generate`] calls this and
    /// panics on violation (configs are developer input, not user data;
    /// the CLI validates before calling).
    pub fn validate(&self) -> Result<(), String> {
        if self.n_months == 0 {
            return Err("observation period must be at least one month".into());
        }
        if self.n_defectors > 0 && self.onset_month >= self.n_months {
            return Err(format!(
                "defection onset (month {}) must precede the end of the observation ({} months)",
                self.onset_month, self.n_months
            ));
        }
        if self.n_loyal + self.n_defectors == 0 {
            return Err("population must contain at least one customer".into());
        }
        if self.catalog.n_segments == 0 {
            return Err("catalog must contain at least one segment".into());
        }
        Ok(())
    }
}

/// A fully generated dataset.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The configuration that produced it.
    pub config: ScenarioConfig,
    /// Product taxonomy.
    pub taxonomy: Taxonomy,
    /// Product-granularity receipts.
    pub store: ReceiptStore,
    /// Ground-truth cohort labels.
    pub labels: LabelSet,
    /// The generated profiles (kept for white-box tests and the Figure 2
    /// case study).
    pub profiles: Vec<CustomerProfile>,
}

impl GeneratedDataset {
    /// Receipts projected to segment granularity (the level the paper's
    /// experiments run at).
    pub fn segment_store(&self) -> ReceiptStore {
        attrition_store::project_to_segments(&self.store, &self.taxonomy)
            .expect("generated receipts reference only cataloged products")
    }
}

/// Run a scenario end to end.
///
/// # Panics
/// On an invalid configuration (see [`ScenarioConfig::validate`]).
pub fn generate(config: &ScenarioConfig) -> GeneratedDataset {
    if let Err(message) = config.validate() {
        panic!("invalid scenario: {message}");
    }
    let mut rng = Rng::seed_from_u64(config.seed);
    let taxonomy = generate_catalog(&config.catalog, &mut rng);
    let defection = DefectionPlan {
        onset_month: config.onset_month,
        ..config.defection.clone()
    };
    let population = Population::generate(
        &PopulationConfig {
            n_loyal: config.n_loyal,
            n_defectors: config.n_defectors,
            behavior: config.behavior.clone(),
            defection,
        },
        &taxonomy,
        config.seed ^ 0x5EED_5EED,
    );
    let simulator = Simulator::new(
        config.start,
        config.n_months,
        config.seasonality.clone(),
        config.seed ^ 0x51_4D_55_4C,
    );
    let store = simulator.run(&population.profiles, &taxonomy);
    GeneratedDataset {
        config: config.clone(),
        taxonomy,
        store,
        labels: population.labels,
        profiles: population.profiles,
    }
}

/// Build the scripted defector of the paper's Figure 2 against a
/// catalog: a reliable shopper with a broad repertoire who stops buying
/// **coffee** in month `coffee_loss_month` (20 in the paper) and **milk,
/// sponges and cheese** two months later.
///
/// Returns the profile; give it a fresh customer id not used by the rest
/// of the population and simulate it alongside them.
pub fn figure2_customer(
    taxonomy: &Taxonomy,
    customer: CustomerId,
    coffee_loss_month: u32,
) -> CustomerProfile {
    let must_have = ["coffee", "milk", "cheese", "sponges"];
    let mut preferred = Vec::new();
    for (idx, name) in must_have.iter().enumerate() {
        let seg = taxonomy
            .segment_by_name(name)
            .unwrap_or_else(|| panic!("catalog lacks the {name} segment"));
        let product = taxonomy.products_in(seg).expect("segment exists")[0];
        let drop = if idx == 0 {
            Some(coffee_loss_month) // coffee
        } else {
            Some(coffee_loss_month + 2) // milk, cheese, sponges
        };
        preferred.push(PreferredItem {
            item: product,
            per_trip_prob: 0.9,
            drop_month: drop,
        });
    }
    // A small stable background repertoire that is never lost. Kept
    // deliberately compact so the four scripted losses account for a
    // large share of the total significance — the paper's example shows
    // a visible dip at the coffee loss and a sharp fall at the
    // milk/sponge/cheese loss.
    let background = ["bread", "butter", "eggs", "yogurt"];
    for name in background {
        if let Some(seg) = taxonomy.segment_by_name(name) {
            let product = taxonomy.products_in(seg).expect("segment exists")[0];
            preferred.push(PreferredItem {
                item: product,
                per_trip_prob: 0.9,
                drop_month: None,
            });
        }
    }
    CustomerProfile {
        customer,
        trips_per_month: 4.5,
        preferred,
        // No exploration: the catalog's most popular segments are the
        // very ones this customer loses, so at segment granularity even a
        // rare exploration draw would mask the scripted losses. The paper
        // likewise hand-picked a clean illustrative customer. Brand
        // switching stays off for the same reason.
        exploration_rate: 0.0,
        trip_decay: None,
        brand_switch_prob: 0.0,
        entry_month: 0,
    }
}

// ---------------------------------------------------------------------------
// Scenario library: the discrete-event engine and its named scenarios.
// ---------------------------------------------------------------------------

/// Stream label for the world-scripting RNG (defector selection, onset
/// stagger, co-shopping follow draws…). Consumed strictly in event pop
/// order, so one seed reproduces the whole script.
const WORLD_STREAM: u64 = 0x0005_CE4A_A105_7A6E;
/// Stream label for build-time scenario planning (who is scripted to
/// defect and when).
const PLAN_STREAM: u64 = 0x91A4_00FF_5EED;

/// A named scenario in the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioId {
    /// The paper's setting run through the event engine: partial
    /// defection at a fixed onset, byte-identical trips to [`generate`].
    Baseline,
    /// A promotion window boosts price-sensitive activity right before a
    /// wave of abrupt defections — activity confounds the signal.
    PromoShock,
    /// One store closes: displaced regulars shop less while re-homing
    /// and half of them exit outright.
    StoreClosure,
    /// A competitor opens: price-sensitive agents defect with
    /// sensitivity-scaled probability, staggered, half gradually.
    CompetitorEntry,
    /// Population-wide seasonal amplitude drifts upward while a cohort
    /// defects gradually — drift vs. defection disambiguation.
    SeasonalDrift,
    /// Households co-shop; a member's exit pulls others along and some
    /// exited members are re-acquired later.
    HouseholdCoshop,
    /// A pure gradual-vs-abrupt defection mix with no confounders —
    /// isolates detection-latency differences by style.
    DefectionMix,
}

impl ScenarioId {
    /// Every scenario, in library order.
    pub const ALL: [ScenarioId; 7] = [
        ScenarioId::Baseline,
        ScenarioId::PromoShock,
        ScenarioId::StoreClosure,
        ScenarioId::CompetitorEntry,
        ScenarioId::SeasonalDrift,
        ScenarioId::HouseholdCoshop,
        ScenarioId::DefectionMix,
    ];

    /// Stable kebab-case name (CLI argument, result keys).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioId::Baseline => "baseline",
            ScenarioId::PromoShock => "promo-shock",
            ScenarioId::StoreClosure => "store-closure",
            ScenarioId::CompetitorEntry => "competitor-entry",
            ScenarioId::SeasonalDrift => "seasonal-drift",
            ScenarioId::HouseholdCoshop => "household-coshop",
            ScenarioId::DefectionMix => "defection-mix",
        }
    }

    /// Parse a [`name`](ScenarioId::name) back to the id.
    pub fn parse(s: &str) -> Option<ScenarioId> {
        ScenarioId::ALL.iter().copied().find(|id| id.name() == s)
    }

    /// One-line description for tables and `--help`.
    pub fn summary(self) -> &'static str {
        match self {
            ScenarioId::Baseline => "paper setting via the event engine (partial defection)",
            ScenarioId::PromoShock => "promotion window confounding an abrupt defection wave",
            ScenarioId::StoreClosure => "store closes; displaced regulars re-home or exit",
            ScenarioId::CompetitorEntry => "competitor opens; sensitivity-scaled staggered churn",
            ScenarioId::SeasonalDrift => "drifting seasonal amplitude over gradual churn",
            ScenarioId::HouseholdCoshop => {
                "household co-shopping with follow-on exits and re-acquisition"
            }
            ScenarioId::DefectionMix => "clean 50/50 gradual vs abrupt defection mix",
        }
    }

    /// True when the scenario can re-acquire exited customers — the only
    /// case where trips after a defection are legal (label invariant).
    pub fn declares_reacquisition(self) -> bool {
        matches!(self, ScenarioId::HouseholdCoshop)
    }

    /// True when defection is partial (trips continue past the onset).
    pub fn partial_defection(self) -> bool {
        matches!(self, ScenarioId::Baseline)
    }
}

/// The output of one scenario run: trips, exact ground truth, and the
/// rendered world/mutation event log.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Which scenario.
    pub id: ScenarioId,
    /// The master seed it ran under.
    pub seed: u64,
    /// True for the CI-sized quick variant.
    pub quick: bool,
    /// First day of month 0.
    pub start: Date,
    /// Observation length in months.
    pub n_months: u32,
    /// Population size (customer ids are dense `0..n_customers`).
    pub n_customers: usize,
    /// Product taxonomy.
    pub taxonomy: Taxonomy,
    /// Product-granularity receipts.
    pub store: ReceiptStore,
    /// Exact ground truth: ordered label events + per-customer records.
    pub truth: GroundTruth,
    /// Rendered non-tick events in pop order (determinism witness).
    pub event_log: Vec<String>,
}

impl ScenarioRun {
    /// The scenario's stable name.
    pub fn name(&self) -> &'static str {
        self.id.name()
    }

    /// Receipts projected to segment granularity.
    pub fn segment_store(&self) -> ReceiptStore {
        attrition_store::project_to_segments(&self.store, &self.taxonomy)
            .expect("generated receipts reference only cataloged products")
    }

    /// Binary cohort labels over the whole population (defector =
    /// any customer with a ground-truth onset).
    pub fn label_set(&self) -> LabelSet {
        self.truth
            .label_set((0..self.n_customers as u64).map(CustomerId::new))
    }

    /// The window grid anchored at the observation start.
    pub fn window_spec(&self, w_months: u32) -> WindowSpec {
        WindowSpec::months(self.start, w_months)
    }

    /// Number of `w_months`-month windows in the observation.
    pub fn num_windows(&self, w_months: u32) -> u32 {
        self.n_months.div_ceil(w_months)
    }
}

/// Run one library scenario.
///
/// `quick` selects the CI-sized variant (smaller population, shorter
/// observation) — same script shape, same invariants, seconds not
/// minutes. Everything derives from `seed`; the same `(id, seed, quick)`
/// triple reproduces the run byte-for-byte.
pub fn run_scenario(id: ScenarioId, seed: u64, quick: bool) -> ScenarioRun {
    match id {
        ScenarioId::Baseline => run_baseline(seed, quick),
        _ => run_scripted(id, seed, quick),
    }
}

/// Per-agent engine state on top of the generative profile.
struct EngineAgent {
    profile: CustomerProfile,
    /// Pristine copy restored on re-acquisition.
    original: CustomerProfile,
    current_brand: Vec<ItemId>,
    active: bool,
    price_sensitivity: f64,
    home_store: u32,
    household: u32,
    /// Trip multiplier while displaced by a store closure…
    closure_mult: f64,
    /// …applied to months `< closure_until`.
    closure_until: u32,
    /// Pooled household items (co-shopping scenario).
    extras: Vec<(ItemId, f64)>,
}

impl EngineAgent {
    fn new(profile: CustomerProfile, sensitivity: f64, home_store: u32, household: u32) -> Self {
        let current_brand = profile.preferred.iter().map(|p| p.item).collect();
        EngineAgent {
            original: profile.clone(),
            profile,
            current_brand,
            active: true,
            price_sensitivity: sensitivity,
            home_store,
            household,
            closure_mult: 1.0,
            closure_until: 0,
            extras: Vec::new(),
        }
    }
}

/// A built scenario: scripted events plus engine knobs.
struct Plan {
    events: Vec<Event>,
    /// Probability that an active household member follows an exit
    /// (scheduled one month later).
    coshop_follow: Option<f64>,
    /// `(probability, months_after_exit)` of re-acquisition.
    reacquire: Option<(f64, u32)>,
}

impl Plan {
    fn bare(events: Vec<Event>) -> Plan {
        Plan {
            events,
            coshop_follow: None,
            reacquire: None,
        }
    }
}

/// The discrete-event engine. Pops the queue in total order and plays
/// one [`simulate_customer_month`] per active agent per month; world
/// events mutate shared state, agent events mutate one agent. All
/// scripting randomness comes from `world_rng`, consumed in pop order.
struct Engine<'a> {
    taxonomy: &'a Taxonomy,
    start: Date,
    n_months: u32,
    seasonality: Seasonality,
    agents: Vec<EngineAgent>,
    rngs: Vec<Rng>,
    queue: EventQueue,
    world_rng: Rng,
    coshop_follow: Option<f64>,
    reacquire: Option<(f64, u32)>,
    promo: Option<(f64, f64, f64)>,
    drift: Option<(u32, f64)>,
    truth: GroundTruth,
    log: Vec<String>,
}

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        taxonomy: &'a Taxonomy,
        start: Date,
        n_months: u32,
        seasonality: Seasonality,
        agents: Vec<EngineAgent>,
        plan: Plan,
        sim_seed: u64,
        world_seed: u64,
    ) -> Engine<'a> {
        // The SAME per-customer stream key as Simulator::customer_rng —
        // an unperturbed agent shops byte-identically to the legacy
        // simulator under the same seed.
        let rngs = agents
            .iter()
            .map(|a| {
                Rng::seed_from_u64(
                    sim_seed
                        .rotate_left(17)
                        .wrapping_add(a.profile.customer.raw().wrapping_mul(0xD6E8_FEB8_6659_FD93)),
                )
            })
            .collect();
        let mut queue = EventQueue::new();
        for event in plan.events {
            queue.push(event);
        }
        for agent in &agents {
            queue.push(Event {
                month: agent.profile.entry_month.min(n_months.saturating_sub(1)),
                phase: Phase::Shop,
                actor: Actor::Agent(agent.profile.customer),
                kind: EventKind::MonthTick,
            });
        }
        Engine {
            taxonomy,
            start,
            n_months,
            seasonality,
            agents,
            rngs,
            queue,
            world_rng: Rng::seed_from_u64(world_seed),
            coshop_follow: plan.coshop_follow,
            reacquire: plan.reacquire,
            promo: None,
            drift: None,
            truth: GroundTruth::new(),
            log: Vec::new(),
        }
    }

    fn run(mut self) -> (ReceiptStore, GroundTruth, Vec<String>) {
        let exploration = Zipf::new(self.taxonomy.num_products(), 1.05);
        let mut builder =
            ReceiptStoreBuilder::with_capacity(self.agents.len() * self.n_months as usize * 4);
        let mut items_buf: Vec<ItemId> = Vec::new();
        while let Some(event) = self.queue.pop() {
            if event.month >= self.n_months {
                continue;
            }
            match (event.actor, event.kind) {
                (Actor::World, kind) => self.handle_world(event.month, kind, &event),
                (Actor::Agent(customer), EventKind::MonthTick) => self.shop_month(
                    customer,
                    event.month,
                    &exploration,
                    &mut builder,
                    &mut items_buf,
                ),
                (Actor::Agent(customer), EventKind::DefectOnset(mode)) => {
                    self.defect_onset(customer, event.month, mode, &event)
                }
                (Actor::Agent(customer), EventKind::Exit) => {
                    self.exit(customer, event.month, &event)
                }
                (Actor::Agent(customer), EventKind::Reacquire) => {
                    self.reacquire(customer, event.month, &event)
                }
                (Actor::Agent(_), _) => unreachable!("world event kinds target Actor::World"),
            }
        }
        (builder.build(), self.truth, self.log)
    }

    fn handle_world(&mut self, month: u32, kind: EventKind, event: &Event) {
        self.log.push(event.to_string());
        match kind {
            EventKind::PromoStart {
                trip_milli,
                explore_milli,
                min_sensitivity_milli,
            } => {
                self.promo = Some((
                    trip_milli as f64 / 1000.0,
                    explore_milli as f64 / 1000.0,
                    min_sensitivity_milli as f64 / 1000.0,
                ));
            }
            EventKind::PromoEnd => self.promo = None,
            EventKind::StoreClose {
                store,
                closure_milli,
                recovery_months,
                exit_milli,
            } => {
                let exit_frac = exit_milli as f64 / 1000.0;
                for idx in 0..self.agents.len() {
                    if !self.agents[idx].active || self.agents[idx].home_store != store {
                        continue;
                    }
                    if self.world_rng.bernoulli(exit_frac) {
                        self.queue.push(Event {
                            month,
                            phase: Phase::Mutate,
                            actor: Actor::Agent(self.agents[idx].profile.customer),
                            kind: EventKind::DefectOnset(DefectMode::Abrupt),
                        });
                    } else {
                        self.agents[idx].closure_mult = closure_milli as f64 / 1000.0;
                        self.agents[idx].closure_until = month + recovery_months;
                    }
                }
            }
            EventKind::CompetitorEntry {
                exit_scale_milli,
                stagger_months,
                gradual_frac_milli,
                ramp_months,
            } => {
                let scale = exit_scale_milli as f64 / 1000.0;
                let gradual_frac = gradual_frac_milli as f64 / 1000.0;
                for idx in 0..self.agents.len() {
                    if !self.agents[idx].active {
                        continue;
                    }
                    let p = (scale * self.agents[idx].price_sensitivity).min(0.95);
                    if !self.world_rng.bernoulli(p) {
                        continue;
                    }
                    let onset =
                        month + self.world_rng.u64_below(stagger_months.max(1) as u64) as u32;
                    let mode = if self.world_rng.bernoulli(gradual_frac) {
                        DefectMode::Gradual { ramp_months }
                    } else {
                        DefectMode::Abrupt
                    };
                    if onset < self.n_months {
                        self.queue.push(Event {
                            month: onset,
                            phase: Phase::Mutate,
                            actor: Actor::Agent(self.agents[idx].profile.customer),
                            kind: EventKind::DefectOnset(mode),
                        });
                    }
                }
            }
            EventKind::SeasonalDrift {
                monthly_drift_milli,
            } => {
                self.drift = Some((month, monthly_drift_milli as f64 / 1000.0));
            }
            _ => unreachable!("agent event kinds target Actor::Agent"),
        }
    }

    fn defect_onset(&mut self, customer: CustomerId, month: u32, mode: DefectMode, event: &Event) {
        let idx = customer.index();
        let already = self
            .truth
            .record_of(customer)
            .is_some_and(|r| r.onset_month.is_some());
        if !self.agents[idx].active || already {
            return; // double-scheduled (e.g. closure + competitor): first wins
        }
        self.log.push(event.to_string());
        let style = match mode {
            DefectMode::Partial => DefectionStyle::Partial,
            DefectMode::Gradual { .. } => DefectionStyle::Gradual,
            DefectMode::Abrupt => DefectionStyle::Abrupt,
        };
        self.truth.record_onset(month, customer, style);
        match mode {
            // Partial: the profile's baked-in drops/decay ARE the
            // defection — no state change, no randomness consumed.
            DefectMode::Partial => {}
            DefectMode::Gradual { ramp_months } => {
                let agent = &mut self.agents[idx];
                agent.profile.trip_decay = Some(TripDecay {
                    onset_month: month,
                    monthly_factor: 0.55,
                });
                for pref in agent.profile.preferred.iter_mut() {
                    let drop = month + self.world_rng.u64_below(ramp_months as u64 + 1) as u32;
                    pref.drop_month = Some(pref.drop_month.map_or(drop, |d| d.min(drop)));
                }
                let stop = month + ramp_months;
                if stop < self.n_months {
                    self.queue.push(Event {
                        month: stop,
                        phase: Phase::Mutate,
                        actor: Actor::Agent(customer),
                        kind: EventKind::Exit,
                    });
                }
            }
            DefectMode::Abrupt => {
                self.queue.push(Event {
                    month,
                    phase: Phase::Mutate,
                    actor: Actor::Agent(customer),
                    kind: EventKind::Exit,
                });
            }
        }
    }

    fn exit(&mut self, customer: CustomerId, month: u32, event: &Event) {
        let idx = customer.index();
        if !self.agents[idx].active {
            return;
        }
        self.agents[idx].active = false;
        self.truth.record_exit(month, customer);
        self.log.push(event.to_string());
        if let Some(follow) = self.coshop_follow {
            let household = self.agents[idx].household;
            for j in 0..self.agents.len() {
                if j == idx || self.agents[j].household != household || !self.agents[j].active {
                    continue;
                }
                if month + 1 < self.n_months && self.world_rng.bernoulli(follow) {
                    self.queue.push(Event {
                        month: month + 1,
                        phase: Phase::Mutate,
                        actor: Actor::Agent(self.agents[j].profile.customer),
                        kind: EventKind::DefectOnset(DefectMode::Abrupt),
                    });
                }
            }
        }
        if let Some((p, gap)) = self.reacquire {
            if month + gap < self.n_months && self.world_rng.bernoulli(p) {
                self.queue.push(Event {
                    month: month + gap,
                    phase: Phase::Mutate,
                    actor: Actor::Agent(customer),
                    kind: EventKind::Reacquire,
                });
            }
        }
    }

    fn reacquire(&mut self, customer: CustomerId, month: u32, event: &Event) {
        let idx = customer.index();
        if self.agents[idx].active {
            return;
        }
        let agent = &mut self.agents[idx];
        agent.active = true;
        agent.profile = agent.original.clone();
        agent.current_brand = agent.profile.preferred.iter().map(|p| p.item).collect();
        self.truth.record_reacquire(month, customer);
        self.log.push(event.to_string());
        // Resume shopping in the re-acquisition month: Mutate < Shop, so
        // this month's tick is still ahead of us.
        self.queue.push(Event {
            month,
            phase: Phase::Shop,
            actor: Actor::Agent(customer),
            kind: EventKind::MonthTick,
        });
    }

    fn shop_month(
        &mut self,
        customer: CustomerId,
        month: u32,
        exploration: &Zipf,
        builder: &mut ReceiptStoreBuilder,
        items_buf: &mut Vec<ItemId>,
    ) {
        let idx = customer.index();
        if !self.agents[idx].active {
            return; // exited: the tick chain stops (Reacquire restarts it)
        }
        let month_start = self.start.add_months(month as i32);
        let month_end = self.start.add_months(month as i32 + 1);
        let base = self.seasonality.factor(month_start.month());
        let seasonal_factor = match self.drift {
            Some((from, rate)) if month >= from => {
                // Amplify the seasonal deviation from 1 by rate·elapsed.
                let amp = 1.0 + rate * (month - from) as f64;
                (1.0 + (base - 1.0) * amp).max(0.05)
            }
            _ => base,
        };
        let mut trip_mult = 1.0;
        let mut explore_mult = 1.0;
        if let Some((trip, explore, min_sensitivity)) = self.promo {
            if self.agents[idx].price_sensitivity >= min_sensitivity {
                trip_mult *= trip;
                explore_mult *= explore;
            }
        }
        if month < self.agents[idx].closure_until {
            trip_mult *= self.agents[idx].closure_mult;
        }
        let agent = &mut self.agents[idx];
        let ctx = MonthContext {
            taxonomy: self.taxonomy,
            exploration,
            month,
            month_start,
            days_in_month: (month_end - month_start) as u64,
            seasonal_factor,
            trip_mult,
            explore_mult,
            extra_items: &agent.extras,
        };
        simulate_customer_month(
            &agent.profile,
            &ctx,
            &mut self.rngs[idx],
            &mut agent.current_brand,
            items_buf,
            builder,
        );
        if month + 1 < self.n_months {
            self.queue.push(Event {
                month: month + 1,
                phase: Phase::Shop,
                actor: Actor::Agent(customer),
                kind: EventKind::MonthTick,
            });
        }
    }
}

/// The paper baseline through the event engine: legacy population
/// (defection baked into profiles), one `DefectOnset(Partial)` label
/// event per defector, neutral modifiers everywhere — trips are
/// byte-identical to [`generate`] with the same seed.
fn run_baseline(seed: u64, quick: bool) -> ScenarioRun {
    let mut cfg = if quick {
        ScenarioConfig::small()
    } else {
        ScenarioConfig::paper_default()
    };
    cfg.seed = seed;
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let taxonomy = generate_catalog(&cfg.catalog, &mut rng);
    let defection = DefectionPlan {
        onset_month: cfg.onset_month,
        ..cfg.defection.clone()
    };
    let population = Population::generate(
        &PopulationConfig {
            n_loyal: cfg.n_loyal,
            n_defectors: cfg.n_defectors,
            behavior: cfg.behavior.clone(),
            defection,
        },
        &taxonomy,
        cfg.seed ^ 0x5EED_5EED,
    );
    let mut events = Vec::new();
    for label in population.labels.labels() {
        if let Cohort::Defector { onset_month } = label.cohort {
            events.push(Event {
                month: onset_month,
                phase: Phase::Mutate,
                actor: Actor::Agent(label.customer),
                kind: EventKind::DefectOnset(DefectMode::Partial),
            });
        }
    }
    let n_customers = population.profiles.len();
    let agents = population
        .profiles
        .into_iter()
        .enumerate()
        .map(|(i, profile)| EngineAgent::new(profile, 0.0, 0, i as u32))
        .collect();
    let engine = Engine::new(
        &taxonomy,
        cfg.start,
        cfg.n_months,
        cfg.seasonality.clone(),
        agents,
        Plan::bare(events),
        cfg.seed ^ 0x51_4D_55_4C,
        cfg.seed ^ WORLD_STREAM,
    );
    let (store, truth, event_log) = engine.run();
    ScenarioRun {
        id: ScenarioId::Baseline,
        seed,
        quick,
        start: cfg.start,
        n_months: cfg.n_months,
        n_customers,
        taxonomy,
        store,
        truth,
        event_log,
    }
}

/// Pick `k` distinct agent indices with a seeded partial Fisher–Yates.
fn pick_agents(plan_rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + plan_rng.u64_below((n - i) as u64) as usize;
        indices.swap(i, j);
    }
    indices.truncate(k);
    indices
}

/// Draw a month uniformly in `lo..=hi`.
fn month_in(plan_rng: &mut Rng, lo: u32, hi: u32) -> u32 {
    lo + plan_rng.u64_below((hi - lo + 1) as u64) as u32
}

fn onset_event(customer: CustomerId, month: u32, mode: DefectMode) -> Event {
    Event {
        month,
        phase: Phase::Mutate,
        actor: Actor::Agent(customer),
        kind: EventKind::DefectOnset(mode),
    }
}

fn world_event(month: u32, kind: EventKind) -> Event {
    Event {
        month,
        phase: Phase::Plan,
        actor: Actor::World,
        kind,
    }
}

/// Every non-baseline scenario: typed agents + a scripted plan.
fn run_scripted(id: ScenarioId, seed: u64, quick: bool) -> ScenarioRun {
    let start = Date::from_ymd(2012, 5, 1).expect("valid date");
    let (n_agents, n_months) = if quick { (120, 14) } else { (480, 24) };
    let catalog = if quick {
        CatalogConfig {
            n_segments: 40,
            mean_products_per_segment: 5.0,
            ..CatalogConfig::default()
        }
    } else {
        CatalogConfig::default()
    };
    let mut rng = Rng::seed_from_u64(seed);
    let taxonomy = generate_catalog(&catalog, &mut rng);
    let population = AgentPopulation::generate(
        &AgentConfig {
            n_agents,
            n_stores: 5,
            behavior: BehaviorConfig::default(),
        },
        &taxonomy,
        seed ^ 0x5EED_5EED,
    );
    let mut plan_rng = Rng::seed_from_u64(seed ^ PLAN_STREAM);
    let mut events = Vec::new();
    let mut plan_follow = None;
    let mut plan_reacquire = None;
    let mut coshop_extras = false;
    match id {
        ScenarioId::PromoShock => {
            let (promo_month, promo_len) = if quick { (6, 3) } else { (10, 4) };
            events.push(world_event(
                promo_month,
                EventKind::PromoStart {
                    trip_milli: 1600,
                    explore_milli: 2500,
                    min_sensitivity_milli: 350,
                },
            ));
            events.push(world_event(promo_month + promo_len, EventKind::PromoEnd));
            let k = if quick { 30 } else { 120 };
            let (lo, hi) = if quick { (8, 11) } else { (12, 18) };
            for agent_idx in pick_agents(&mut plan_rng, n_agents, k) {
                let onset = month_in(&mut plan_rng, lo, hi);
                events.push(onset_event(
                    CustomerId::new(agent_idx as u64),
                    onset,
                    DefectMode::Abrupt,
                ));
            }
        }
        ScenarioId::StoreClosure => {
            let month = if quick { 6 } else { 10 };
            events.push(world_event(
                month,
                EventKind::StoreClose {
                    store: 2,
                    closure_milli: 450,
                    recovery_months: 3,
                    exit_milli: 500,
                },
            ));
        }
        ScenarioId::CompetitorEntry => {
            let month = if quick { 6 } else { 10 };
            events.push(world_event(
                month,
                EventKind::CompetitorEntry {
                    exit_scale_milli: 600,
                    stagger_months: if quick { 4 } else { 6 },
                    gradual_frac_milli: 500,
                    ramp_months: if quick { 3 } else { 4 },
                },
            ));
        }
        ScenarioId::SeasonalDrift => {
            let from = if quick { 4 } else { 8 };
            events.push(world_event(
                from,
                EventKind::SeasonalDrift {
                    monthly_drift_milli: 80,
                },
            ));
            let k = if quick { 26 } else { 110 };
            let (lo, hi) = if quick { (6, 9) } else { (10, 16) };
            let ramp = if quick { 3 } else { 5 };
            for agent_idx in pick_agents(&mut plan_rng, n_agents, k) {
                let onset = month_in(&mut plan_rng, lo, hi);
                events.push(onset_event(
                    CustomerId::new(agent_idx as u64),
                    onset,
                    DefectMode::Gradual { ramp_months: ramp },
                ));
            }
        }
        ScenarioId::HouseholdCoshop => {
            coshop_extras = true;
            plan_follow = Some(0.65);
            plan_reacquire = Some((0.3, if quick { 3 } else { 4 }));
            let target = if quick { 10 } else { 40 };
            let (lo, hi) = if quick { (5, 8) } else { (9, 14) };
            let groups: Vec<std::ops::Range<usize>> = population
                .households()
                .into_iter()
                .filter(|g| g.len() >= 2)
                .collect();
            for gi in pick_agents(&mut plan_rng, groups.len(), target) {
                let onset = month_in(&mut plan_rng, lo, hi);
                // The first household member seeds the exit cascade.
                events.push(onset_event(
                    CustomerId::new(groups[gi].start as u64),
                    onset,
                    DefectMode::Abrupt,
                ));
            }
        }
        ScenarioId::DefectionMix => {
            let k = if quick { 36 } else { 140 };
            let (lo, hi) = if quick { (5, 9) } else { (9, 15) };
            let ramp = if quick { 3 } else { 6 };
            for (i, agent_idx) in pick_agents(&mut plan_rng, n_agents, k)
                .into_iter()
                .enumerate()
            {
                let onset = month_in(&mut plan_rng, lo, hi);
                let mode = if i % 2 == 0 {
                    DefectMode::Gradual { ramp_months: ramp }
                } else {
                    DefectMode::Abrupt
                };
                events.push(onset_event(CustomerId::new(agent_idx as u64), onset, mode));
            }
        }
        ScenarioId::Baseline => unreachable!("baseline handled by run_baseline"),
    }
    let mut agents: Vec<EngineAgent> = population
        .agents
        .iter()
        .map(|a| {
            EngineAgent::new(
                a.profile.clone(),
                a.price_sensitivity,
                a.home_store,
                a.household,
            )
        })
        .collect();
    if coshop_extras {
        // Each member also picks up the other members' top staples with
        // moderate probability — pooled household shopping.
        for group in population.households() {
            if group.len() < 2 {
                continue;
            }
            for i in group.clone() {
                let mut extras = Vec::new();
                for j in group.clone() {
                    if j == i {
                        continue;
                    }
                    if let Some(top) = population.agents[j].profile.preferred.first() {
                        extras.push((top.item, 0.3));
                    }
                }
                agents[i].extras = extras;
            }
        }
    }
    let plan = Plan {
        events,
        coshop_follow: plan_follow,
        reacquire: plan_reacquire,
    };
    let engine = Engine::new(
        &taxonomy,
        start,
        n_months,
        Seasonality::grocery_default(),
        agents,
        plan,
        seed ^ 0x51_4D_55_4C,
        seed ^ WORLD_STREAM,
    );
    let (store, truth, event_log) = engine.run();
    ScenarioRun {
        id,
        seed,
        quick,
        start,
        n_months,
        n_customers: n_agents,
        taxonomy,
        store,
        truth,
        event_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_generates() {
        let ds = generate(&ScenarioConfig::small());
        assert_eq!(ds.labels.len(), 120);
        assert_eq!(ds.labels.num_defectors(), 60);
        assert!(ds.store.num_receipts() > 1000);
        assert_eq!(ds.store.num_customers(), 120);
        let (lo, hi) = ds.store.date_range().unwrap();
        assert!(lo >= ds.config.start);
        assert!(hi < ds.config.start.add_months(16));
    }

    #[test]
    fn paper_default_shape() {
        let cfg = ScenarioConfig::paper_default();
        assert_eq!(cfg.n_months, 28);
        assert_eq!(cfg.onset_month, 18);
        assert_eq!(cfg.num_windows(2), 14);
        assert_eq!(cfg.onset_window(2), 9);
        let spec = cfg.window_spec(2);
        assert_eq!(spec.window_start(0), Date::from_ymd(2012, 5, 1).unwrap());
        assert_eq!(spec.window_end(13), Date::from_ymd(2014, 9, 1).unwrap());
    }

    #[test]
    fn deterministic_generation() {
        let cfg = ScenarioConfig::small();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.store.num_receipts(), b.store.num_receipts());
        for (ra, rb) in a.store.receipts().zip(b.store.receipts()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn segment_store_projects() {
        let ds = generate(&ScenarioConfig::small());
        let seg = ds.segment_store();
        assert_eq!(seg.num_receipts(), ds.store.num_receipts());
        let max_seg = seg.max_item_id().unwrap().raw();
        assert!(
            (max_seg as usize) < ds.taxonomy.num_segments(),
            "segment id {max_seg} out of range"
        );
    }

    #[test]
    fn figure2_profile_shape() {
        let ds = generate(&ScenarioConfig::small());
        let profile = figure2_customer(&ds.taxonomy, CustomerId::new(10_000), 20);
        // 4 scripted losses + the compact background repertoire.
        assert!(profile.preferred.len() >= 8);
        // Coffee drops at 20, the other three named products at 22.
        let coffee_seg = ds.taxonomy.segment_by_name("coffee").unwrap();
        let mut saw_coffee = false;
        let mut late_drops = 0;
        for p in &profile.preferred {
            let seg = ds.taxonomy.segment_of(p.item).unwrap();
            if seg == coffee_seg {
                assert_eq!(p.drop_month, Some(20));
                saw_coffee = true;
            } else if p.drop_month.is_some() {
                assert_eq!(p.drop_month, Some(22));
                late_drops += 1;
            }
        }
        assert!(saw_coffee);
        assert_eq!(late_drops, 3);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let good = ScenarioConfig::small();
        assert!(good.validate().is_ok());
        let mut no_months = good.clone();
        no_months.n_months = 0;
        assert!(no_months.validate().is_err());
        let mut late_onset = good.clone();
        late_onset.onset_month = 16;
        assert!(late_onset.validate().is_err());
        // …but a late onset is fine when there are no defectors at all.
        late_onset.n_defectors = 0;
        assert!(late_onset.validate().is_ok());
        let mut empty = good.clone();
        empty.n_loyal = 0;
        empty.n_defectors = 0;
        assert!(empty.validate().is_err());
        let mut no_catalog = good.clone();
        no_catalog.catalog.n_segments = 0;
        assert!(no_catalog.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn generate_panics_on_invalid_config() {
        let mut cfg = ScenarioConfig::small();
        cfg.n_months = 0;
        generate(&cfg);
    }

    #[test]
    fn labels_match_profiles() {
        let ds = generate(&ScenarioConfig::small());
        for profile in &ds.profiles {
            let cohort = ds.labels.cohort_of(profile.customer).unwrap();
            assert_eq!(
                cohort.is_defector(),
                profile.is_defector_profile(),
                "customer {}",
                profile.customer
            );
        }
    }

    #[test]
    fn baseline_engine_byte_identical_to_legacy_generate() {
        // The tentpole invariant: the event engine with neutral modifiers
        // reproduces the legacy generator draw-for-draw. The golden fig1
        // regression rests on this at full size; here the quick size.
        let mut cfg = ScenarioConfig::small();
        cfg.seed = 7;
        let legacy = generate(&cfg);
        let run = run_scenario(ScenarioId::Baseline, 7, true);
        assert_eq!(run.store.num_receipts(), legacy.store.num_receipts());
        for (a, b) in run.store.receipts().zip(legacy.store.receipts()) {
            assert_eq!(a, b);
        }
        // Ground truth mirrors the legacy cohorts exactly.
        assert_eq!(run.truth.num_defectors(), legacy.labels.num_defectors());
        for label in legacy.labels.labels() {
            if let Cohort::Defector { onset_month } = label.cohort {
                let record = run.truth.record_of(label.customer).unwrap();
                assert_eq!(record.onset_month, Some(onset_month));
                assert_eq!(record.style, Some(DefectionStyle::Partial));
                assert_eq!(record.exit_month, None);
            }
        }
        let set = run.label_set();
        assert_eq!(set.num_defectors(), legacy.labels.num_defectors());
        assert_eq!(set.len(), legacy.labels.len());
    }

    #[test]
    fn scenario_ids_round_trip() {
        assert_eq!(ScenarioId::ALL.len(), 7);
        for id in ScenarioId::ALL {
            assert_eq!(ScenarioId::parse(id.name()), Some(id));
            assert!(!id.summary().is_empty());
        }
        assert_eq!(ScenarioId::parse("nope"), None);
        assert!(ScenarioId::HouseholdCoshop.declares_reacquisition());
        assert!(!ScenarioId::PromoShock.declares_reacquisition());
        assert!(ScenarioId::Baseline.partial_defection());
    }

    #[test]
    fn every_scenario_emits_trips_and_labels() {
        for id in ScenarioId::ALL {
            let run = run_scenario(id, 42, true);
            assert!(run.store.num_receipts() > 0, "{}: no trips", id.name());
            assert!(
                !run.truth.events().is_empty(),
                "{}: empty label stream",
                id.name()
            );
            assert!(run.truth.num_defectors() > 0, "{}: no defectors", id.name());
            assert!(
                run.truth.num_defectors() < run.n_customers,
                "{}: everyone defected",
                id.name()
            );
            // Every onset lands inside the observation.
            for r in run.truth.records() {
                if let Some(m) = r.onset_month {
                    assert!(m < run.n_months, "{}: onset out of range", id.name());
                }
            }
        }
    }
}
