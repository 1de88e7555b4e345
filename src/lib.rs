//! # attrition
//!
//! A production-quality Rust implementation of the customer **stability
//! model** for individual-level attrition detection and explanation in
//! grocery retail, reproducing *"Understanding Customer Attrition at an
//! Individual Level: a New Model in Grocery Retail Context"* (Gautrais,
//! Cellier, Guyet, Quiniou, Termier — EDBT 2016).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `attrition-types` | ids, dates, money, baskets, receipts, taxonomy |
//! | [`util`] | `attrition-util` | deterministic PRNG, statistics, tables, CSV, charts |
//! | [`store`] | `attrition-store` | columnar receipt store, windowed databases, dataset stats |
//! | [`datagen`] | `attrition-datagen` | synthetic grocery-retail simulator |
//! | [`model`] | `attrition-core` | the stability model: significance, stability, explanation |
//! | [`rfm`] | `attrition-rfm` | the RFM + logistic-regression baseline |
//! | [`eval`] | `attrition-eval` | ROC/AUROC, DeLong CIs, cross-validation, grid search, gains, detection latency |
//! | [`obs`] | `attrition-obs` | pipeline observability: metrics registry, stage timers |
//! | [`serve`] | `attrition-serve` | online scoring server: sharded monitors behind a TCP line protocol |
//!
//! ## Quickstart
//!
//! ```
//! use attrition::prelude::*;
//!
//! // 1. A synthetic retailer: loyal + defecting cohorts over 16 months.
//! let dataset = attrition::datagen::generate(&ScenarioConfig::small());
//!
//! // 2. The paper's windowed database at segment granularity.
//! let seg_store = dataset.segment_store();
//! let spec = WindowSpec::months(dataset.config.start, 2);
//! let db = WindowedDatabase::from_store(&seg_store, spec, 8, WindowAlignment::Global);
//!
//! // 3. Stability of every customer at every window (α = 2).
//! let matrix = StabilityEngine::new(StabilityParams::PAPER).compute(&db);
//!
//! // 4. AUROC of defector detection at the last window.
//! let pairs = matrix.attrition_scores_at(WindowIndex::new(7));
//! let labels: Vec<bool> = pairs
//!     .iter()
//!     .map(|(c, _)| dataset.labels.cohort_of(*c).unwrap().is_defector())
//!     .collect();
//! let scores: Vec<f64> = pairs.iter().map(|(_, s)| *s).collect();
//! let auc = attrition::eval::auroc(&labels, &scores);
//! assert!(auc > 0.7, "detection works: AUROC {auc}");
//! ```

pub use attrition_core as model;
pub use attrition_datagen as datagen;
pub use attrition_eval as eval;
pub use attrition_obs as obs;
pub use attrition_rfm as rfm;
pub use attrition_serve as serve;
pub use attrition_store as store;
pub use attrition_types as types;
pub use attrition_util as util;

/// The most common imports, for `use attrition::prelude::*`.
pub mod prelude {
    pub use crate::datagen::{
        figure2_customer, Cohort, CustomerLabel, GeneratedDataset, LabelSet, ScenarioConfig,
    };
    pub use crate::eval::{auroc, ConfusionMatrix, RocCurve, StratifiedKFold};
    pub use crate::model::{
        aggregate_explanations, analyze_customer, stability_series, StabilityClassifier,
        StabilityEngine, StabilityMatrix, StabilityMonitor, StabilityParams,
    };
    pub use crate::rfm::{out_of_fold_scores, RfmFeatures, RfmModel};
    pub use crate::store::{
        DatasetStats, ReceiptStore, ReceiptStoreBuilder, WindowAlignment, WindowSpec,
        WindowedDatabase,
    };
    pub use crate::types::{
        Basket, Cents, CustomerId, Date, ItemId, Receipt, SegmentId, Taxonomy, WindowIndex,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        let _ = crate::model::StabilityParams::PAPER;
        let _ = crate::datagen::ScenarioConfig::small();
        let _ = crate::types::Date::EPOCH;
    }
}
