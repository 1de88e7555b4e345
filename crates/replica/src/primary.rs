//! The primary's front-end: the full serving [`Engine`] plus the
//! replication verbs, behind one [`Service`].
//!
//! [`PrimaryService`] answers `REPL` (from the [`ReplicationLog`]
//! capped at the engine's durable floor; inside a `BATCH` frame, one
//! `ERR` line), `REJOIN` and `PROMOTE` (a primary is not promotable —
//! `ERR`) in member position, and passes
//! each maximal run of the other members of a frame to the engine as
//! one sub-frame ([`execute_split`]): a `BATCH` of writes pays one group
//! commit, exactly as on a bare engine. Plugging it into
//! [`start_service`](attrition_serve::start_service) turns an ordinary
//! durable server into a replication primary with no change to its
//! client-facing behavior.

use crate::epoch;
use crate::log::{ReplicationLog, Shipment};
use crate::wire::{FetchRequest, FetchResponse, RejoinRequest, RejoinResponse};
use attrition_serve::engine::ShutdownReport;
use attrition_serve::{execute_split, BatchLines, BatchScratch, Engine, Service, Storage};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hard cap on records per shipped batch, whatever the replica asks
/// for — bounds the response size and the time the fetch handler
/// spends re-reading the log.
pub use crate::wire::MAX_BATCH_RECORDS;

/// A `REPL` inside a `BATCH` frame: its shipment would span lines.
pub(crate) const REPL_IN_BATCH: &str = "ERR REPL not allowed in BATCH";

/// Answer one `REPL` line from `log`, stamped with `epoch`, capped at
/// `engine`'s durable floor. Shared by the primary and by a promoted
/// replica (which serves its own log the same way).
pub(crate) fn answer_repl(line: &str, epoch: u64, engine: &Engine, log: &ReplicationLog) -> String {
    let req = match FetchRequest::parse(line) {
        Ok(req) => req,
        Err(e) => return format!("ERR {e}"),
    };
    if req.epoch > epoch {
        // The requester has seen a newer primary generation than us —
        // we are the stale side. Never ship; the operator decides what
        // to do with this node.
        return format!(
            "ERR fenced: requester epoch {} is ahead of ours ({epoch})",
            req.epoch
        );
    }
    let floor = engine.wal_synced_seq();
    // How far the fetcher trails our durable log, as of this request —
    // the primary-side view of replication lag.
    attrition_obs::gauge("serve.repl.lag_records").set(floor.saturating_sub(req.after) as i64);
    let max = (req.max as usize).min(MAX_BATCH_RECORDS);
    match log.fetch(req.after, max, floor) {
        Ok(Shipment::Records(records)) => {
            let shipped = records
                .last()
                .map_or_else(|| req.after.min(floor), |r| r.seq);
            attrition_obs::gauge("serve.repl.shipped_seq").set(shipped as i64);
            attrition_obs::gauge("serve.repl.epoch").set(epoch as i64);
            FetchResponse::Batch {
                epoch,
                durable: floor,
                records,
            }
            .to_wire()
        }
        Ok(Shipment::Snapshot { lsn, body }) => {
            attrition_obs::gauge("serve.repl.shipped_seq").set(lsn as i64);
            attrition_obs::gauge("serve.repl.epoch").set(epoch as i64);
            FetchResponse::Snapshot { epoch, lsn, body }.to_wire()
        }
        Err(e) => format!("ERR replication fetch failed: {e}"),
    }
}

/// Answer one `REJOIN` divergence handshake, reporting `epoch` and the
/// LSN it started at. Shared by the primary and by a promoted replica.
pub(crate) fn answer_rejoin(line: &str, epoch: u64, epoch_start: u64) -> String {
    let req = match RejoinRequest::parse(line) {
        Ok(req) => req,
        Err(e) => return format!("ERR {e}"),
    };
    if req.epoch > epoch {
        // Same fencing rule as REPL: if the requester has seen a newer
        // generation, we are the one who should be rejoining.
        return format!(
            "ERR fenced: requester epoch {} is ahead of ours ({epoch})",
            req.epoch
        );
    }
    attrition_obs::counter("serve.repl.rejoin_handshakes").inc();
    RejoinResponse {
        epoch,
        promotion_lsn: epoch_start,
    }
    .to_line()
}

/// A replication-serving wrapper around a primary [`Engine`].
pub struct PrimaryService {
    engine: Arc<Engine>,
    log: ReplicationLog,
    epoch: u64,
    epoch_start: u64,
    repl_requests: AtomicU64,
    repl_errors: AtomicU64,
}

impl PrimaryService {
    /// Wrap `engine`, serving replication from `wal_dir` (the engine's
    /// own WAL directory) over the real filesystem.
    pub fn open(engine: Arc<Engine>, wal_dir: &Path) -> std::io::Result<PrimaryService> {
        PrimaryService::open_in(engine, attrition_serve::RealStorage::shared(), wal_dir)
    }

    /// [`open`](PrimaryService::open) against any [`Storage`] (the
    /// simulator's entry point).
    pub fn open_in(
        engine: Arc<Engine>,
        storage: Arc<dyn Storage>,
        wal_dir: &Path,
    ) -> std::io::Result<PrimaryService> {
        let meta = epoch::read_epoch_meta_in(&*storage, wal_dir)?;
        // Persist the default on first boot so a later promotion
        // elsewhere always finds something to compare against.
        epoch::write_epoch_meta_in(&*storage, wal_dir, meta.epoch, meta.start_lsn)?;
        attrition_obs::gauge("serve.repl.epoch").set(meta.epoch as i64);
        let log = ReplicationLog::new(storage, wal_dir);
        Ok(PrimaryService {
            engine,
            log,
            epoch: meta.epoch,
            epoch_start: meta.start_lsn,
            repl_requests: AtomicU64::new(0),
            repl_errors: AtomicU64::new(0),
        })
    }

    /// This primary's generation number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The LSN at which this primary's generation started.
    pub fn epoch_start_lsn(&self) -> u64 {
        self.epoch_start
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Answer one of this front-end's own verbs (`batched`: in member
    /// position of a `BATCH` frame).
    fn answer_own(&self, line: &str, batched: bool) -> (&'static str, String) {
        match line.split_ascii_whitespace().next() {
            Some("REPL") if batched => ("repl", REPL_IN_BATCH.to_owned()),
            Some("REPL") => (
                "repl",
                answer_repl(line, self.epoch, &self.engine, &self.log),
            ),
            Some("REJOIN") => ("rejoin", answer_rejoin(line, self.epoch, self.epoch_start)),
            _ => ("promote", "ERR not a replica".to_owned()),
        }
    }
}

impl Service for PrimaryService {
    fn execute(&self, frame: &dyn BatchLines, scratch: &mut BatchScratch, out: &mut String) {
        execute_split(
            frame,
            scratch,
            out,
            |line| {
                matches!(
                    line.split_ascii_whitespace().next(),
                    Some("REPL" | "REJOIN" | "PROMOTE")
                )
            },
            |line, batched| self.answer_own(line, batched),
            (&self.repl_requests, &self.repl_errors),
            |run, scratch, out| self.engine.execute(run, scratch, out),
        );
    }

    fn request_shutdown(&self) {
        self.engine.request_shutdown();
    }

    fn shutdown_requested(&self) -> bool {
        self.engine.shutdown_requested()
    }

    fn requests(&self) -> u64 {
        self.engine.requests() + self.repl_requests.load(Ordering::Relaxed)
    }

    fn errors(&self) -> u64 {
        self.engine.errors() + self.repl_errors.load(Ordering::Relaxed)
    }

    fn num_customers(&self) -> usize {
        self.engine.num_customers()
    }

    fn shutdown_flush(&self) -> ShutdownReport {
        self.engine.shutdown_flush()
    }
}
