//! # attrition-core
//!
//! The paper's contribution: the **customer stability model** for
//! individual-level attrition detection and explanation (Gautrais et al.,
//! EDBT 2016).
//!
//! Definitions (Section 2 of the paper), over a windowed database
//! `D_i^w` with per-window item sets `u_k`:
//!
//! * `c(k)` — number of windows before `k` containing item `p`;
//!   `l(k)` — number of windows before `k` **not** containing `p`.
//! * **Significance** `S(p,k) = α^(c(k)−l(k))` if `c(k) > 0`, else `0`,
//!   with `α > 1`.
//! * **Stability** `Stability_i^k = Σ_{p∈u_k} S(p,k) / Σ_{p∈I} S(p,k)`.
//! * **Explanation** of a drop: `argmax_{p∉u_k} S(p,k)` — the most
//!   significant product missing from window `k` (extended here to the
//!   ranked set of missing products).
//!
//! Implementation note: every window before `k` either contains `p` or
//! not, so `l(k) = k − c(k)` and `S(p,k) = α^(2c(k)−k)` — the incremental
//! [`significance::SignificanceTracker`] therefore stores one counter per
//! item plus the global window count. Because `S` depends on an item only
//! through its count, the tracker additionally maintains a **count
//! histogram** and a lazily-grown α-power table, so the denominator costs
//! O(k) with one canonical (ascending-count) summation order. The batch
//! engine, the streaming monitor and the serve shards all close a window
//! through one step, [`SignificanceTracker::close_window`], so their scores
//! are bit-identical (DESIGN.md §9).
//!
//! Modules: [`params`] (α and the threshold β), [`significance`],
//! [`stability`] (per-customer series), [`explanation`] (lost-product
//! ranking + population aggregation), [`classifier`] (the β rule),
//! [`engine`] (parallel batch scoring of a whole
//! [`WindowedDatabase`](attrition_store::WindowedDatabase)), and
//! [`incremental`] (a streaming monitor — the deployment mode a retailer
//! would run in production).

pub mod classifier;
pub mod cohort;
pub mod engine;
pub mod explanation;
pub mod export;
pub mod incremental;
pub mod params;
pub mod recovery;
pub mod significance;
pub mod stability;
pub mod trajectory;
pub mod variants;

pub use classifier::StabilityClassifier;
pub use cohort::{cohort_curves, flag_rate_per_window, CohortPoint};
pub use engine::{StabilityEngine, StabilityMatrix};
pub use explanation::{aggregate_explanations, LostProduct, SegmentDriver, WindowExplanation};
pub use export::{explanations_to_csv, matrix_to_csv};
pub use incremental::{RestoreError, StabilityMonitor, WindowClosed, SNAPSHOT_MAGIC};
pub use params::StabilityParams;
pub use recovery::{detect_recoveries, RegainedProduct, WindowRecovery};
pub use significance::SignificanceTracker;
pub use stability::{analyze_customer, stability_series, CustomerAnalysis, StabilityPoint};
pub use trajectory::{faded_items, significance_trajectories, ItemTrajectory};
pub use variants::{stability_series_variant, SignificanceVariant, VariantTracker};
