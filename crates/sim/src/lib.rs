//! # attrition-sim
//!
//! A deterministic simulation harness for the serving + durability
//! stack, in the FoundationDB style: the **real** production code —
//! [`Engine`](attrition_serve::Engine), the WAL, checkpoints, recovery
//! — runs single-threaded against a seeded logical clock
//! ([`SimClock`]), an in-memory crash-faithful filesystem
//! ([`SimStorage`]), and a seed-driven fault schedule
//! ([`FaultPlan`](attrition_serve::FaultPlan)): message drops,
//! duplicates, delay-reorders, injected and torn disk writes, and
//! crash-restarts at arbitrary event boundaries.
//!
//! One `u64` seed fixes the entire interleaving, so any failure the
//! sweep finds replays exactly:
//!
//! ```text
//! ATTRITION_SIM_SEED=<seed> cargo test -p attrition-sim --test sim repro_seed -- --nocapture
//! ```
//!
//! After every recovery the harness asserts (DESIGN §11): recovery
//! reaches the WAL's durability floor (under `sync=always`, every
//! acknowledged mutation survives), and the recovered state is
//! bit-identical to a reference monitor folded over exactly the
//! surviving WAL prefix — so no un-acknowledged, never-logged record is
//! ever visible. Between crashes every `SCORE` response is compared
//! bit-for-bit against the reference.
//!
//! [`SimBug`] re-introduces known bugs (e.g. reopening the WAL at the
//! file's length instead of its recovered end) to prove the harness fails loudly, with a printed seed,
//! when the stack is actually broken.

pub mod env;
pub mod harness;
pub mod net;
pub mod repl;

pub use env::{SimClock, SimStorage, StorageStats};
pub use harness::{repro_command, run, SimBug, SimConfig, SimReport};
pub use net::{Flight, NetStats, SimNet};
pub use repl::{
    repro_rejoin_command, repro_repl_command, run_repl, ReplReport, ReplSimBug, ReplSimConfig,
};
