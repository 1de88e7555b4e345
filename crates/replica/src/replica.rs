//! The replica: an ordinary durable [`Engine`] fed by shipped records
//! instead of client writes, plus the promotion state machine.
//!
//! ## How replay stays bit-identical
//!
//! A shipped `RBATCH` is applied as one frame through the *same*
//! engine `execute` path the primary ran — one group commit for the
//! whole batch, the replica's own WAL assigning the same sequence
//! numbers (batches are contiguous and applied in order, and a frame's
//! records land contiguously), the same out-of-order ingests rejected.
//! Afterwards the replica checks every member's
//! [`MemberOutcome::seq`](attrition_serve::MemberOutcome) against its
//! record's sequence number; a mismatch is a hard error, never papered
//! over. Records that reached the log but failed in the WAL afterwards
//! (a failed fsync) were answered `ERR` and not applied: the replica
//! then rebuilds its engine from its own log, so its state is again the
//! fold of that log — unless the WAL is dead, which only a restart
//! (recovery) may heal.
//!
//! ## Idempotency and fencing
//!
//! Records at or below the applied LSN are skipped (dup and reordered
//! deliveries are harmless), and a batch that does not continue at
//! `applied + 1` is rejected (the replica re-fetches). Every shipment
//! carries its sender's epoch: anything stamped below the replica's own
//! epoch is *fenced* — after a promotion bumps the epoch, a resurrected
//! old primary's in-flight shipments reject themselves.
//!
//! ## Promotion
//!
//! `PROMOTE` fsyncs the replica's WAL, durably writes `epoch + 1` and
//! its takeover LSN, and only then starts accepting writes. The
//! takeover LSN is the replica's durable last sequence number — the
//! simulator asserts it is never below the primary's acked-durable LSN
//! (invariant R1).
//!
//! ## Rejoin
//!
//! A deposed primary's durable log may hold a *divergent suffix*:
//! records it logged above the promotion LSN that never shipped, and
//! that the new generation's timeline replaced with different records
//! at the same sequence numbers. Adopting a newer epoch in place would
//! silently graft the new timeline onto that suffix, so [`fence`] only
//! auto-adopts on an *empty* node; everyone else gets a "rejoin
//! required" error, and [`ReplicaEngine::rejoin_to`] applies the
//! discard rule from the `REJOIN`/`RJOIN` handshake: keep local state
//! only when it provably contains no divergent record (the responder
//! is exactly one epoch ahead and our applied LSN is at or below its
//! promotion LSN); otherwise discard WAL + checkpoints durably and
//! re-bootstrap through the ordinary snapshot/recovery path. The epoch
//! adoption is written *last* — a crash mid-discard leaves the node at
//! its old epoch, and the next handshake simply re-runs.

use crate::epoch;
use crate::log::ReplicationLog;
use crate::primary::{answer_rejoin, answer_repl};
use crate::wire::FetchRequest;
use crate::wire::FetchResponse;
use attrition_serve::checkpoint;
use attrition_serve::engine::{ShutdownReport, WAL_FAILURE};
use attrition_serve::recovery::{recover_in, Fallback, RecoveryError, RecoveryStats};
use attrition_serve::wal::WalRecord;
use attrition_serve::wal::WAL_FILE;
use attrition_serve::{
    execute_split, member_responses, BatchLines, BatchScratch, Clock, DurabilityConfig, Engine,
    RealClock, RealStorage, Service, ShardedMonitor, Storage,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Everything a replica needs to open.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The replica's *own* WAL directory (never the primary's).
    pub wal_dir: PathBuf,
    /// Monitor shards, as on a primary.
    pub n_shards: usize,
    /// The replica's own WAL + checkpoint cadence (`wal_dir` here must
    /// match the field above).
    pub durability: DurabilityConfig,
    /// Grid used when the replica boots with no local state yet.
    pub fallback: Fallback,
    /// **Fault-injection only** (the simulator's planted bug): skip the
    /// epoch fence and apply stale-generation shipments. Never set in
    /// production — the replication sweep exists to prove this exact
    /// flag breaks the byte-equality invariant.
    pub accept_stale_epoch: bool,
    /// **Fault-injection only** (the simulator's planted bug): adopt
    /// the new epoch on rejoin but keep the divergent local suffix
    /// instead of discarding it. Never set in production — the rejoin
    /// sweep exists to prove this exact flag breaks invariant R3.
    pub keep_divergent_suffix: bool,
}

impl ReplicaConfig {
    /// Defaults: 8 shards, the [`DurabilityConfig`] defaults, fencing on.
    pub fn new(wal_dir: impl Into<PathBuf>, fallback: Fallback) -> ReplicaConfig {
        let wal_dir = wal_dir.into();
        ReplicaConfig {
            durability: DurabilityConfig::new(&wal_dir),
            wal_dir,
            n_shards: 8,
            fallback,
            accept_stale_epoch: false,
            keep_divergent_suffix: false,
        }
    }
}

/// What [`ReplicaEngine::rejoin_to`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RejoinOutcome {
    /// The node's epoch after the call.
    pub epoch: u64,
    /// Whether the epoch moved forward (a rejoin actually happened).
    pub adopted: bool,
    /// Whether local state was discarded and rebuilt from scratch.
    pub discarded: bool,
    /// Local records above the divergence floor (discarded, unless the
    /// planted `keep_divergent_suffix` bug kept them).
    pub divergent_records: u64,
}

/// What applying one [`FetchResponse`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Applied {
    /// The replica's applied LSN after this shipment.
    pub applied_seq: u64,
    /// Records newly applied.
    pub fresh: u64,
    /// Records skipped as already applied (dups/reorders).
    pub skipped: u64,
    /// Whether a bootstrap snapshot was installed.
    pub snapshot_installed: bool,
    /// Primary durable floor minus applied LSN, per the batch header.
    pub lag: u64,
}

/// The replica engine; implements [`Service`] so
/// [`start_service`](attrition_serve::start_service) can serve it.
pub struct ReplicaEngine {
    inner: RwLock<Arc<Engine>>,
    log: ReplicationLog,
    storage: Arc<dyn Storage>,
    clock: Arc<dyn Clock>,
    config: ReplicaConfig,
    epoch: AtomicU64,
    epoch_start: AtomicU64,
    promoted: AtomicBool,
    shutdown: AtomicBool,
    // Counters for intercepted verbs plus requests accumulated in
    // engines swapped out by a snapshot install.
    base_requests: AtomicU64,
    base_errors: AtomicU64,
}

impl ReplicaEngine {
    /// Open (recovering local state) over the real filesystem and clock.
    pub fn open(config: ReplicaConfig) -> Result<(ReplicaEngine, RecoveryStats), RecoveryError> {
        ReplicaEngine::open_in(config, RealStorage::shared(), Arc::new(RealClock))
    }

    /// [`open`](ReplicaEngine::open) against explicit environment seams
    /// — the simulator's entry point.
    pub fn open_in(
        config: ReplicaConfig,
        storage: Arc<dyn Storage>,
        clock: Arc<dyn Clock>,
    ) -> Result<(ReplicaEngine, RecoveryStats), RecoveryError> {
        storage.create_dir_all(&config.wal_dir)?;
        let meta = epoch::read_epoch_meta_in(&*storage, &config.wal_dir)?;
        let (engine, stats) = recovered_engine(&config, &storage, &clock)?;
        let log = ReplicationLog::new(Arc::clone(&storage), &config.wal_dir);
        attrition_obs::gauge("serve.repl.epoch").set(meta.epoch as i64);
        Ok((
            ReplicaEngine {
                inner: RwLock::new(engine),
                log,
                storage,
                clock,
                config,
                epoch: AtomicU64::new(meta.epoch),
                epoch_start: AtomicU64::new(meta.start_lsn),
                promoted: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
                base_requests: AtomicU64::new(0),
                base_errors: AtomicU64::new(0),
            },
            stats,
        ))
    }

    /// The current inner engine (swapped atomically by a snapshot
    /// install; callers hold a consistent engine for their operation).
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(
            &self
                .inner
                .read()
                .unwrap_or_else(|poison| poison.into_inner()),
        )
    }

    /// Highest sequence number applied locally.
    pub fn applied_seq(&self) -> u64 {
        self.engine().wal_last_seq()
    }

    /// Highest locally *durable* sequence number — what promotion takes
    /// over at, and what acks report back to the primary.
    pub fn durable_seq(&self) -> u64 {
        self.engine().wal_synced_seq()
    }

    /// The replica's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The LSN at which this node's current epoch started.
    pub fn epoch_start_lsn(&self) -> u64 {
        self.epoch_start.load(Ordering::SeqCst)
    }

    /// Whether this node has been promoted (accepts writes).
    pub fn promoted(&self) -> bool {
        self.promoted.load(Ordering::SeqCst)
    }

    /// The next fetch to send upstream.
    pub fn fetch_request(&self, max: u64) -> FetchRequest {
        FetchRequest {
            epoch: self.epoch(),
            after: self.applied_seq(),
            max,
        }
    }

    /// Apply one shipment. `Err` means nothing further was applied
    /// (fenced epoch, batch gap, log misalignment, failed install) —
    /// the fetch loop logs it and retries from the current state.
    pub fn apply_response(&self, resp: &FetchResponse) -> Result<Applied, String> {
        match resp {
            FetchResponse::Batch {
                epoch,
                durable,
                records,
            } => {
                self.fence(*epoch)?;
                let inner = self.engine();
                let applied = inner.wal_last_seq();
                // Dup and reordered deliveries at or below the applied
                // LSN are skipped; the rest must continue it one by one.
                let run: Vec<&WalRecord> = records.iter().filter(|r| r.seq > applied).collect();
                if let Some((r, _)) = run.iter().zip(applied + 1..).find(|(r, seq)| r.seq != *seq) {
                    return Err(format!(
                        "batch gap: record {} cannot follow applied LSN {applied}",
                        r.seq
                    ));
                }
                let ops: Vec<&str> = run.iter().map(|r| r.op.as_str()).collect();
                let mut scratch = BatchScratch::new();
                let mut out = String::new();
                inner.execute(&ops, &mut scratch, &mut out);
                let members = run
                    .iter()
                    .zip(scratch.outcomes())
                    .zip(member_responses(&out));
                for ((r, outcome), response) in members {
                    if outcome.seq != r.seq {
                        // The op did not log exactly this record — a
                        // non-mutating verb in the stream or a local WAL
                        // failure. Divergence, not something to skip.
                        return Err(format!(
                            "replica log misaligned: record {} left the log at {}",
                            r.seq,
                            inner.wal_last_seq()
                        ));
                    }
                    if response.starts_with(WAL_FAILURE) {
                        if inner.wal_crashed() {
                            // The log is dead (a process death under
                            // fault injection): only recovery may read it.
                            return Err(format!(
                                "record {} failed in the replica's wal ({response}); \
                                 the wal is dead, restart the node",
                                r.seq
                            ));
                        }
                        // Logged but not applied (the group commit
                        // failed). Counting it applied would leave the
                        // replica behind its own log for good: the next
                        // fetch starts after it. Rebuild from the log
                        // instead, which replays it.
                        let mut guard = self
                            .inner
                            .write()
                            .unwrap_or_else(|poison| poison.into_inner());
                        self.reload(&mut guard)
                            .map_err(|e| format!("rebuild after a wal failure failed: {e}"))?;
                        return Err(format!(
                            "record {} failed in the replica's wal ({response}); \
                             state rebuilt from the local log",
                            r.seq
                        ));
                    }
                }
                let (fresh, skipped) = (run.len() as u64, (records.len() - run.len()) as u64);
                let applied = applied + fresh;
                let lag = durable.saturating_sub(applied);
                attrition_obs::gauge("serve.repl.applied_seq").set(applied as i64);
                attrition_obs::gauge("serve.repl.lag_records").set(lag as i64);
                Ok(Applied {
                    applied_seq: applied,
                    fresh,
                    skipped,
                    snapshot_installed: false,
                    lag,
                })
            }
            FetchResponse::Snapshot { epoch, lsn, body } => {
                self.fence(*epoch)?;
                let applied = self.applied_seq();
                if *lsn <= applied {
                    // A duplicate or reordered bootstrap we already
                    // passed: ignore, never move backwards.
                    return Ok(Applied {
                        applied_seq: applied,
                        ..Applied::default()
                    });
                }
                self.install_snapshot(*lsn, body)
                    .map_err(|e| format!("snapshot install failed: {e}"))?;
                let applied = self.applied_seq();
                attrition_obs::gauge("serve.repl.applied_seq").set(applied as i64);
                Ok(Applied {
                    applied_seq: applied,
                    snapshot_installed: true,
                    ..Applied::default()
                })
            }
        }
    }

    /// The epoch fence: reject stale generations, adopt newer ones
    /// (durably) before applying anything they shipped.
    fn fence(&self, sender_epoch: u64) -> Result<(), String> {
        let own = self.epoch();
        if sender_epoch < own {
            if self.config.accept_stale_epoch {
                // Planted bug (fault injection): apply it anyway. The
                // replication sweep proves this diverges.
                attrition_obs::counter("serve.repl.stale_epoch_accepted").inc();
                return Ok(());
            }
            attrition_obs::counter("serve.repl.fenced").inc();
            return Err(format!(
                "fenced: shipment epoch {sender_epoch} below replica epoch {own}"
            ));
        }
        if sender_epoch > own {
            // A newer generation exists. Only an *empty* node may adopt
            // it in place: anything with local history may hold a
            // divergent suffix above the promotion LSN, and grafting
            // the new timeline onto it would be silent divergence. The
            // caller must run the REJOIN handshake (`rejoin_to`), which
            // knows where the new generation started.
            if self.applied_seq() > 0 {
                attrition_obs::counter("serve.repl.rejoin_required").inc();
                return Err(format!(
                    "rejoin required: shipment epoch {sender_epoch} is ahead of epoch {own} \
                     and this node has local history (possible divergent suffix)"
                ));
            }
            epoch::write_epoch_meta_in(&*self.storage, &self.config.wal_dir, sender_epoch, 0)
                .map_err(|e| format!("cannot adopt epoch {sender_epoch}: {e}"))?;
            self.epoch.store(sender_epoch, Ordering::SeqCst);
            self.epoch_start.store(0, Ordering::SeqCst);
            attrition_obs::gauge("serve.repl.epoch").set(sender_epoch as i64);
        }
        Ok(())
    }

    /// Rejoin the generation a `RJOIN <new_epoch> <promotion_lsn>`
    /// handshake reported, discarding any divergent local suffix.
    ///
    /// The discard rule: local state survives only when it provably
    /// contains no record off the surviving timeline — the responder is
    /// exactly one epoch ahead (so `promotion_lsn` *is* the boundary
    /// where our timeline ended) and our applied LSN is at or below it.
    /// Across more than one promotion the responder only knows its
    /// latest takeover point, which may lie above older divergence, so
    /// the floor drops to 0 and everything local is rebuilt.
    ///
    /// A no-op when `new_epoch` is not ahead of ours. Errors if this
    /// node was promoted (a primary does not rejoin anything).
    pub fn rejoin_to(&self, new_epoch: u64, promotion_lsn: u64) -> std::io::Result<RejoinOutcome> {
        if self.promoted() {
            return Err(std::io::Error::other("a promoted node cannot rejoin"));
        }
        let mut guard = self
            .inner
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        let own = self.epoch();
        if new_epoch <= own {
            return Ok(RejoinOutcome {
                epoch: own,
                ..RejoinOutcome::default()
            });
        }
        let applied = guard.wal_last_seq();
        let divergence_floor = if new_epoch == own + 1 {
            promotion_lsn
        } else {
            0
        };
        let divergent = applied.saturating_sub(divergence_floor);
        let mut discarded = false;
        if divergent > 0 {
            if self.config.keep_divergent_suffix {
                // Planted bug (fault injection): adopt the epoch but
                // keep the suffix. The rejoin sweep proves this breaks
                // the R3 byte-equality invariant.
                attrition_obs::counter("serve.repl.divergent_suffix_kept").inc();
            } else {
                self.discard_local_state()?;
                self.reload(&mut guard)?;
                discarded = true;
                attrition_obs::counter("serve.repl.divergent_records_discarded").add(divergent);
                attrition_obs::gauge("serve.repl.applied_seq").set(0);
            }
        }
        // The epoch adoption lands last, after every discard above is
        // durable: a crash anywhere earlier leaves the node at its old
        // epoch and the handshake re-runs; adopting first could leave a
        // new-epoch node still holding its divergent log.
        epoch::write_epoch_meta_in(
            &*self.storage,
            &self.config.wal_dir,
            new_epoch,
            promotion_lsn,
        )?;
        self.epoch.store(new_epoch, Ordering::SeqCst);
        self.epoch_start.store(promotion_lsn, Ordering::SeqCst);
        attrition_obs::counter("serve.repl.rejoins").inc();
        attrition_obs::gauge("serve.repl.epoch").set(new_epoch as i64);
        Ok(RejoinOutcome {
            epoch: new_epoch,
            adopted: true,
            discarded,
            divergent_records: divergent,
        })
    }

    /// Durably erase WAL and checkpoints (the divergent timeline) so
    /// recovery sees a pristine directory.
    fn discard_local_state(&self) -> std::io::Result<()> {
        let wal_path = self.config.wal_dir.join(WAL_FILE);
        match self.storage.set_len(&wal_path, 0) {
            Ok(_) => self.storage.sync(&wal_path)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        for (_lsn, path) in checkpoint::list_in(&*self.storage, &self.config.wal_dir)? {
            self.storage.remove(&path)?;
        }
        for (_lsn, path) in checkpoint::list_tmp_in(&*self.storage, &self.config.wal_dir)? {
            self.storage.remove(&path)?;
        }
        // Removals must survive a crash before the epoch write lands,
        // or a half-discarded node could recover divergent state under
        // the new epoch.
        self.storage.sync_dir(&self.config.wal_dir)
    }

    /// Install a bootstrap checkpoint: truncate the local WAL (its
    /// records are all below the snapshot), write the checkpoint file,
    /// and rebuild the inner engine through the ordinary recovery path.
    fn install_snapshot(&self, lsn: u64, body: &[u8]) -> std::io::Result<()> {
        let mut guard = self
            .inner
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        let wal_path = self.config.wal_dir.join(WAL_FILE);
        self.storage.set_len(&wal_path, 0)?;
        self.storage.sync(&wal_path)?;
        checkpoint::write_binary_in(&*self.storage, &self.config.wal_dir, lsn, body)?;
        self.reload(&mut guard)
    }

    /// Replace the engine in `guard` with one recovered from the local
    /// WAL directory, carrying the old engine's request counters over.
    fn reload(&self, guard: &mut Arc<Engine>) -> std::io::Result<()> {
        let (engine, _stats) = recovered_engine(&self.config, &self.storage, &self.clock)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        self.base_requests
            .fetch_add(guard.requests(), Ordering::Relaxed);
        self.base_errors
            .fetch_add(guard.errors(), Ordering::Relaxed);
        *guard = engine;
        Ok(())
    }

    /// Take over as primary: fsync the local WAL, durably bump the
    /// epoch, start accepting writes. Returns `(epoch, takeover_lsn)`;
    /// idempotent — a second call reports the existing promotion.
    pub fn promote(&self) -> std::io::Result<(u64, u64)> {
        if self.promoted() {
            return Ok((self.epoch(), self.engine().wal_last_seq()));
        }
        let inner = self.engine();
        inner.sync_wal()?;
        let lsn = inner.wal_last_seq();
        let new_epoch = self.epoch() + 1;
        // Epoch first, durably, with its takeover LSN: once we accept a
        // write, any shipment from the old generation must already be
        // fenceable, and a rejoining deposed primary will ask where
        // this generation started.
        epoch::write_epoch_meta_in(&*self.storage, &self.config.wal_dir, new_epoch, lsn)?;
        self.epoch.store(new_epoch, Ordering::SeqCst);
        self.epoch_start.store(lsn, Ordering::SeqCst);
        self.promoted.store(true, Ordering::SeqCst);
        attrition_obs::gauge("serve.repl.epoch").set(new_epoch as i64);
        Ok((new_epoch, lsn))
    }

    /// Answer one of this front-end's own verbs.
    fn answer_own(&self, line: &str) -> (&'static str, String) {
        match line.split_ascii_whitespace().next() {
            // A replica serves its own log too — that is what lets a
            // promoted node immediately act as the next primary (and
            // supports chained replicas).
            Some("REPL") => (
                "repl",
                answer_repl(line, self.epoch(), &self.engine(), &self.log),
            ),
            // A promoted node is the new primary: it answers the
            // divergence handshake with its takeover point so deposed
            // nodes can find and discard their divergent suffixes.
            Some("REJOIN") => (
                "rejoin",
                answer_rejoin(line, self.epoch(), self.epoch_start_lsn()),
            ),
            Some("PROMOTE") => match self.promote() {
                Ok((epoch, lsn)) => ("promote", format!("OK promoted {epoch} {lsn}")),
                Err(e) => ("promote", format!("ERR promote failed: {e}")),
            },
            Some("SHUTDOWN") => {
                self.request_shutdown();
                ("shutdown", "OK draining".to_owned())
            }
            _ => (
                "readonly",
                "ERR read-only replica (PROMOTE to accept writes)".to_owned(),
            ),
        }
    }
}

fn recovered_engine(
    config: &ReplicaConfig,
    storage: &Arc<dyn Storage>,
    clock: &Arc<dyn Clock>,
) -> Result<(Arc<Engine>, RecoveryStats), RecoveryError> {
    let (monitor, stats) = recover_in(&**storage, &config.wal_dir, Some(&config.fallback))?;
    let sharded = ShardedMonitor::from_monitor(monitor, config.n_shards);
    let engine = Engine::open_in(
        sharded,
        None,
        Some(&config.durability),
        stats.log_end(),
        Arc::clone(storage),
        Arc::clone(clock),
    )?;
    Ok((Arc::new(engine), stats))
}

impl Service for ReplicaEngine {
    /// Writes reach the engine only once promoted; until then `INGEST`
    /// and `FLUSH` are answered read-only in member position, so a
    /// frame holding a `PROMOTE` accepts the writes after it.
    fn execute(&self, frame: &dyn BatchLines, scratch: &mut BatchScratch, out: &mut String) {
        execute_split(
            frame,
            scratch,
            out,
            |line| match line.split_ascii_whitespace().next() {
                Some("REPL" | "REJOIN" | "PROMOTE" | "SHUTDOWN") => true,
                Some("INGEST" | "FLUSH") => !self.promoted(),
                _ => false,
            },
            |line| self.answer_own(line),
            (&self.base_requests, &self.base_errors),
            |run, scratch, out| self.engine().execute(run, scratch, out),
        );
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.engine().request_shutdown();
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || self.engine().shutdown_requested()
    }

    fn requests(&self) -> u64 {
        self.base_requests.load(Ordering::Relaxed) + self.engine().requests()
    }

    fn errors(&self) -> u64 {
        self.base_errors.load(Ordering::Relaxed) + self.engine().errors()
    }

    fn num_customers(&self) -> usize {
        self.engine().num_customers()
    }

    fn shutdown_flush(&self) -> ShutdownReport {
        self.engine().shutdown_flush()
    }
}
