//! # attrition-serve
//!
//! The online deployment mode of the stability model: a std-only TCP
//! server that keeps per-customer [`StabilityMonitor`] state *live* and
//! scores windows as receipts arrive — the paper's `Stability_i^k ≤ β`
//! detector as a continuously-served signal instead of a batch job.
//!
//! Three layers, bottom up:
//!
//! - [`shard`] — customers hash-routed across N independent monitors,
//!   each behind its own lock, so ingest never takes a global lock and
//!   scoring stays bit-identical to a single monitor.
//! - [`pool`] — a fixed worker pool with a *bounded* queue: saturation
//!   answers `ERR busy` immediately (fail-fast backpressure) instead of
//!   buffering unboundedly.
//! - [`server`] — the accept loop, the newline-delimited [`protocol`],
//!   per-connection read timeouts, `attrition-obs` wiring, and graceful
//!   shutdown (`SHUTDOWN`/SIGINT drains in-flight requests and writes a
//!   restorable checkpoint).
//!
//! The durability layer sits beside them (see DESIGN §10 for the
//! contract):
//!
//! - [`wal`] — a length+CRC-framed write-ahead log of mutating requests;
//!   with a [`DurabilityConfig`] set, `INGEST`/`FLUSH` are acked only
//!   after their record is appended (and, under `--sync-policy always`,
//!   fsynced).
//! - [`checkpoint`] — crash-atomic, checksummed state snapshots
//!   (tmp + fsync + rename), rotated inside the WAL directory; a
//!   successful checkpoint truncates the WAL.
//! - [`recovery`] — startup restore: newest valid checkpoint (falling
//!   back past corrupt ones) + WAL replay, with torn-tail detection.
//! - [`faults`] — a deterministic [`FaultPlan`] the tests use to fail or
//!   "crash" the WAL mid-stream and prove recovery is bit-identical.
//!
//! [`client`] is the matching blocking client used by the load
//! generator and the tests; the protocol itself is plain enough for an
//! interactive `nc` session (see README's Serving section).
//!
//! ```no_run
//! use attrition_serve::server::{self, ServerConfig};
//! use attrition_core::StabilityParams;
//! use attrition_store::WindowSpec;
//! use attrition_types::Date;
//!
//! let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 2);
//! let config = ServerConfig::new("127.0.0.1:7711", spec, StabilityParams::PAPER);
//! let handle = server::start(config).unwrap();
//! println!("serving on {}", handle.local_addr());
//! let summary = handle.join(); // returns after SHUTDOWN / SIGINT
//! println!("served {} requests", summary.requests);
//! ```
//!
//! [`StabilityMonitor`]: attrition_core::StabilityMonitor

pub mod checkpoint;
pub mod client;
pub mod engine;
pub mod env;
pub mod faults;
pub mod pool;
pub mod protocol;
pub mod recovery;
pub mod server;
pub mod shard;
pub mod wal;

pub use checkpoint::CheckpointFormat;
pub use client::{Client, Pipeline, Reply, RetryPolicy, RetryStats};
pub use engine::{BatchScratch, Engine, MemberOutcome, ShutdownReport};
pub use env::{Clock, RealClock, RealStorage, RngCore, SplitMix64, Storage};
pub use faults::FaultPlan;
pub use pool::ThreadPool;
pub use protocol::{
    member_responses, parse_batch_header, BatchLines, PackedLines, ParsedRequest, ParsedScore,
    Request, MAX_BATCH,
};
pub use recovery::{recover, Fallback, RecoveryError, RecoveryStats};
pub use server::{
    execute_split, install_sigint_handler, start, start_resumed, start_service, start_with,
    DurabilityConfig, ServerConfig, ServerHandle, ServerSummary, Service,
};
pub use shard::{OutOfOrder, ShardedMonitor};
pub use wal::{LogEnd, SyncPolicy};
