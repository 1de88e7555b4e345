//! # attrition-eval
//!
//! Evaluation toolkit used by every experiment:
//!
//! * [`roc`] — ROC curves and AUROC (the paper's headline metric,
//!   Figure 1), computed exactly by the Mann–Whitney rank statistic with
//!   tie correction; threshold selection by Youden's J.
//! * [`confusion`] — thresholded binary-classification metrics
//!   (precision, recall, F1, lift).
//! * [`cv`] — deterministic k-fold and stratified k-fold cross-validation
//!   (the paper selects α and the window length by 5-fold CV).
//! * [`grid`] — grid search driven by a caller-supplied scorer.
//! * [`ci`] — DeLong confidence intervals and the paired DeLong test
//!   for the AUROC (Figure 1's uncertainty).
//! * [`gains`] — cumulative gains and lift for campaign sizing.
//! * [`latency`] — detection delay at a fixed false-alarm budget
//!   (shared by the latency bench and the per-scenario evaluation).
//!
//! The crate is dependency-light (only `attrition-util`) and fully
//! generic over where scores come from, so the stability model and the
//! RFM baseline are evaluated by identical code paths.

pub mod ci;
pub mod confusion;
pub mod cv;
pub mod gains;
pub mod grid;
pub mod latency;
pub mod roc;

pub use ci::{auroc_ci_delong, delong_paired_test, AurocCi, PairedDelong};
pub use confusion::ConfusionMatrix;
pub use cv::{KFold, StratifiedKFold};
pub use gains::{GainsCurve, GainsPoint};
pub use grid::{grid_search, GridResult};
pub use latency::{detection_latency, LatencyConfig, LatencySummary};
pub use roc::{auroc, RocCurve, RocPoint};
