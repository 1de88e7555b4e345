//! Crash recovery: newest valid checkpoint + WAL replay.
//!
//! [`recover`] rebuilds the monitor state a crashed (or cleanly
//! stopped) server had acknowledged, from its WAL directory:
//!
//! 1. **Checkpoint.** Walk `checkpoint-*.ckpt` newest-first; the first
//!    one that passes its length+CRC header is restored. Corrupt or
//!    torn checkpoints are *skipped*, not fatal — but an older
//!    checkpoint plus the log reaches the same state only while the log
//!    still holds every record above the older one. Every checkpoint
//!    empties the WAL once its rename is durable, so the records
//!    between an older checkpoint and a skipped newer one usually exist
//!    in the skipped file alone.
//! 2. **Replay.** Walk `wal.log`'s frames in place and re-apply every
//!    record with `seq > checkpoint LSN` in log order. Records at or
//!    below the LSN are already folded into the checkpoint and are
//!    skipped by their sequence number — replay is idempotent, so a
//!    crash between checkpoint rename and WAL truncation double-writes
//!    nothing. Each op parses into one reused item arena and applies
//!    through `ingest_sorted`: nothing is allocated per record.
//! 3. **No silent gaps.** Records above the restored LSN must continue
//!    it without a hole, and no skipped checkpoint may cover an LSN
//!    beyond where replay ends. Otherwise acknowledged records exist
//!    nowhere, and recovery fails with [`RecoveryError::MissingRecords`]
//!    instead of serving a state without them and handing their
//!    sequence numbers to new writes (which a replica may already hold
//!    as the old ones). Stranded `.tmp` files do not count: the WAL is
//!    emptied only after a checkpoint's rename is durable.
//! 4. **Where the log ends.** Zeros after the last valid frame are the
//!    log's preallocated extent, a clean end. Anything else there — a
//!    partial or corrupt frame, the write the crash interrupted — is
//!    detected by the CRC framing, truncated off the file, and reported.
//!    Everything before it was acked and is kept; the torn record was
//!    never acked, so dropping it is correct. The end of the last valid
//!    frame is handed to the reopened WAL ([`RecoveryStats::log_end`]),
//!    which resumes there without reading the log again.
//!
//! The result is bit-identical to the state of an uncrashed server that
//! processed exactly the acknowledged requests (proven by the crash
//! tests in `tests/crash_recovery.rs` and the CLI's SIGKILL e2e test).

use crate::checkpoint::{self, CheckpointError};
use crate::env::{RealStorage, Storage};
use crate::protocol::{ParsedRequest, Request};
use crate::shard::check_order;
use crate::wal::{self, Frames, LogEnd, WAL_FILE};
use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_store::WindowSpec;
use attrition_types::ItemId;
use std::path::Path;

/// Grid configuration used when no checkpoint exists yet (first boot):
/// the WAL alone cannot define the window grid.
#[derive(Debug, Clone, Copy)]
pub struct Fallback {
    /// The window grid.
    pub spec: WindowSpec,
    /// Significance parameters.
    pub params: StabilityParams,
    /// Lost products retained per closed-window explanation.
    pub max_explanations: usize,
}

/// What [`recover`] did, for the startup log line and the tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryStats {
    /// LSN of the checkpoint that was loaded (`None`: fresh/WAL-only).
    pub checkpoint_lsn: Option<u64>,
    /// Checkpoints that failed verification and were skipped.
    pub corrupt_checkpoints: u64,
    /// The loaded checkpoint was salvaged from a stranded `*.ckpt.tmp`
    /// staging file (a crash hit between the staging write and a
    /// durable rename).
    pub salvaged_tmp: bool,
    /// WAL records re-applied (seq above the checkpoint LSN).
    pub replayed: u64,
    /// WAL records skipped because the checkpoint already covers them.
    pub already_applied: u64,
    /// Replayed ingests rejected as out-of-order — exactly the requests
    /// the live server answered `ERR` to, so skipping them reproduces
    /// the served state.
    pub out_of_order: u64,
    /// Torn bytes truncated off the end of the WAL.
    pub torn_bytes: u64,
    /// The sequence number the reopened WAL continues from.
    pub next_seq: u64,
    /// Byte offset of the WAL's logical end (the end of its last valid
    /// frame): where the reopened WAL writes next.
    pub wal_end: u64,
    /// Customers tracked after recovery.
    pub customers: usize,
}

impl RecoveryStats {
    /// Where the reopened WAL continues — hand it to
    /// [`Engine::open_in`](crate::engine::Engine::open_in) so the log is
    /// not read a second time.
    pub fn log_end(&self) -> LogEnd {
        LogEnd {
            next_seq: self.next_seq,
            offset: self.wal_end,
        }
    }
}

impl std::fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.checkpoint_lsn {
            Some(lsn) if self.salvaged_tmp => write!(f, "checkpoint lsn {lsn} (salvaged tmp)")?,
            Some(lsn) => write!(f, "checkpoint lsn {lsn}")?,
            None => write!(f, "no checkpoint")?,
        }
        write!(
            f,
            ", replayed {} wal records ({} already applied, {} out-of-order)",
            self.replayed, self.already_applied, self.out_of_order
        )?;
        if self.corrupt_checkpoints > 0 {
            write!(
                f,
                ", skipped {} corrupt checkpoints",
                self.corrupt_checkpoints
            )?;
        }
        if self.torn_bytes > 0 {
            write!(f, ", truncated {} torn tail bytes", self.torn_bytes)?;
        }
        write!(f, "; {} customers live", self.customers)
    }
}

/// Why recovery could not produce a monitor.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem trouble reading the WAL directory or log.
    Io(std::io::Error),
    /// No valid checkpoint exists and no [`Fallback`] grid was given.
    NoGrid,
    /// A CRC-valid WAL record does not parse as a protocol request —
    /// a version skew or foreign file, never something to guess around.
    BadRecord {
        /// The record's sequence number.
        seq: u64,
        /// The parse failure.
        reason: String,
    },
    /// Records `first..=last` are in neither a readable checkpoint nor
    /// the log: the log does not continue the restored state, or an
    /// unreadable checkpoint covered records replay cannot reach.
    MissingRecords {
        /// LSN of the restored checkpoint (0: none was restored).
        restored: u64,
        /// The first missing sequence number.
        first: u64,
        /// The last missing sequence number.
        last: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery i/o error: {e}"),
            RecoveryError::NoGrid => write!(
                f,
                "no valid checkpoint in the wal directory and no window grid \
                 configured — pass the grid (e.g. --origin) for first boot"
            ),
            RecoveryError::BadRecord { seq, reason } => {
                write!(f, "wal record {seq} is valid but unparseable: {reason}")
            }
            RecoveryError::MissingRecords {
                restored,
                first,
                last,
            } => write!(
                f,
                "wal records {first}..={last} are in no readable checkpoint and not in the \
                 log (restored checkpoint lsn {restored}); refusing to continue without them"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> RecoveryError {
        RecoveryError::Io(e)
    }
}

/// Recover the acknowledged state from `dir` (see the module docs).
/// `fallback` supplies the grid when no checkpoint exists yet.
///
/// Side effects: a torn WAL tail is truncated off `wal.log`. Nothing
/// else is modified — checkpoint rotation stays the running server's
/// job.
pub fn recover(
    dir: &Path,
    fallback: Option<&Fallback>,
) -> Result<(StabilityMonitor, RecoveryStats), RecoveryError> {
    recover_in(&*RealStorage::shared(), dir, fallback)
}

/// One verified restore attempt during the checkpoint walk.
fn try_restore(
    storage: &dyn Storage,
    lsn: u64,
    path: &Path,
    corrupt_checkpoints: &mut u64,
) -> Result<Option<(u64, StabilityMonitor)>, RecoveryError> {
    match checkpoint::read_in(storage, path) {
        Ok(ckpt) => match StabilityMonitor::restore_bytes(&ckpt.body) {
            Ok(monitor) => return Ok(Some((ckpt.lsn, monitor))),
            Err(e) => {
                // Header passed but the body does not restore: treat
                // like corruption and keep walking back.
                *corrupt_checkpoints += 1;
                attrition_obs::counter("serve.recovery.corrupt_checkpoints").inc();
                eprintln!(
                    "recovery: skipping checkpoint {} (lsn {lsn}): {e}",
                    path.display()
                );
            }
        },
        Err(CheckpointError::Corrupt(reason)) => {
            *corrupt_checkpoints += 1;
            attrition_obs::counter("serve.recovery.corrupt_checkpoints").inc();
            eprintln!(
                "recovery: skipping checkpoint {} (lsn {lsn}): {reason}",
                path.display()
            );
        }
        Err(CheckpointError::Io(e)) => return Err(RecoveryError::Io(e)),
    }
    Ok(None)
}

/// [`recover`] against an explicit [`Storage`] — what the deterministic
/// simulator calls with its in-memory filesystem.
pub fn recover_in(
    storage: &dyn Storage,
    dir: &Path,
    fallback: Option<&Fallback>,
) -> Result<(StabilityMonitor, RecoveryStats), RecoveryError> {
    // Newest valid checkpoint, falling back past corrupt ones.
    let mut corrupt_checkpoints = 0u64;
    let mut salvaged_tmp = false;
    let mut restored: Option<(u64, StabilityMonitor)> = None;
    // The highest LSN a skipped final checkpoint covered: replay must
    // reach it, or its records are lost.
    let mut newest_skipped: Option<u64> = None;
    for (lsn, path) in checkpoint::list_in(storage, dir)? {
        if let Some(found) = try_restore(storage, lsn, &path, &mut corrupt_checkpoints)? {
            restored = Some(found);
            break;
        }
        newest_skipped.get_or_insert(lsn);
    }
    if restored.is_none() {
        // Last resort: a stranded `*.ckpt.tmp` staging file. A crash
        // between the staging write and a durable rename leaves a fully
        // written, fully verifiable checkpoint under the tmp name while
        // the WAL may already have been truncated against it — salvaging
        // it (header + CRC must still verify) recovers that state
        // instead of erroring out or silently rewinding.
        for (lsn, path) in checkpoint::list_tmp_in(storage, dir)? {
            if let Some(found) = try_restore(storage, lsn, &path, &mut corrupt_checkpoints)? {
                eprintln!(
                    "recovery: adopting stranded staging checkpoint {} (lsn {lsn})",
                    path.display()
                );
                salvaged_tmp = true;
                restored = Some(found);
                break;
            }
        }
    }

    let (checkpoint_lsn, mut monitor) = match restored {
        Some((lsn, monitor)) => (Some(lsn), monitor),
        None => match fallback {
            Some(fb) => (
                None,
                StabilityMonitor::new(fb.spec, fb.params)
                    .with_max_explanations(fb.max_explanations),
            ),
            None => return Err(RecoveryError::NoGrid),
        },
    };
    let floor = checkpoint_lsn.unwrap_or(0);

    // Replay the log above the checkpoint in place, then cut a torn
    // tail off at the end of the last valid frame.
    let wal_path = dir.join(WAL_FILE);
    let bytes = wal::read_log(storage, &wal_path)?;
    let mut stats = RecoveryStats {
        checkpoint_lsn,
        corrupt_checkpoints,
        salvaged_tmp,
        replayed: 0,
        already_applied: 0,
        out_of_order: 0,
        torn_bytes: 0,
        next_seq: floor + 1,
        wal_end: 0,
        customers: 0,
    };
    let mut items: Vec<ItemId> = Vec::new();
    let mut frames = Frames::new(&bytes);
    for (seq, op) in frames.by_ref() {
        if seq <= floor {
            stats.already_applied += 1;
            continue;
        }
        // `next_seq` is `floor + 1` until the first record above it.
        if seq > stats.next_seq {
            return Err(RecoveryError::MissingRecords {
                restored: floor,
                first: stats.next_seq,
                last: seq - 1,
            });
        }
        stats.next_seq = stats.next_seq.max(seq + 1);
        items.clear();
        let request =
            Request::parse_into(op, &mut items).map_err(|e| RecoveryError::BadRecord {
                seq,
                reason: e.to_string(),
            })?;
        match request {
            ParsedRequest::Ingest(customer, date, _) => {
                // The live server's out-of-order rule: a record it
                // answered `ERR` to must not mutate state on replay.
                if check_order(&monitor, customer, date).is_err() {
                    stats.out_of_order += 1;
                    continue;
                }
                // `Basket::new`'s canonical form, in the reused arena.
                items.sort_unstable();
                items.dedup();
                monitor.ingest_sorted(customer, date, &items);
                stats.replayed += 1;
            }
            ParsedRequest::Flush(date) => {
                monitor.flush_until(date);
                stats.replayed += 1;
            }
            other => {
                return Err(RecoveryError::BadRecord {
                    seq,
                    reason: format!("non-mutating verb {:?} in the log", other.verb()),
                })
            }
        }
    }
    if let Some(skipped) = newest_skipped.filter(|&lsn| lsn >= stats.next_seq) {
        return Err(RecoveryError::MissingRecords {
            restored: floor,
            first: stats.next_seq,
            last: skipped,
        });
    }
    stats.wal_end = frames.end();
    stats.torn_bytes = frames.torn_bytes();
    if stats.torn_bytes > 0 {
        wal::truncate_to_valid_in(storage, &wal_path, stats.wal_end)?;
        attrition_obs::counter("serve.recovery.torn_bytes").add(stats.torn_bytes);
    }
    attrition_obs::counter("serve.recovery.replayed_records").add(stats.replayed);
    stats.customers = monitor.num_customers();
    Ok((monitor, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{SyncPolicy, Wal};
    use attrition_types::{Basket, CustomerId, Date};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("attrition_recovery_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fallback() -> Fallback {
        Fallback {
            spec: WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1),
            params: StabilityParams::PAPER,
            max_explanations: 5,
        }
    }

    #[test]
    fn fresh_directory_needs_a_grid() {
        let dir = temp_dir("fresh");
        assert!(matches!(recover(&dir, None), Err(RecoveryError::NoGrid)));
        let (monitor, stats) = recover(&dir, Some(&fallback())).unwrap();
        assert_eq!(monitor.num_customers(), 0);
        assert_eq!(stats.next_seq, 1);
        assert_eq!(stats.checkpoint_lsn, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_only_replay_rebuilds_state() {
        let dir = temp_dir("walonly");
        let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Never, 1).unwrap();
        wal.append("INGEST 7 2012-05-02 1 2").unwrap();
        wal.append("INGEST 7 2012-06-03 1").unwrap();
        wal.append("FLUSH 2012-07-01").unwrap();
        drop(wal);
        let (monitor, stats) = recover(&dir, Some(&fallback())).unwrap();
        assert_eq!(stats.replayed, 3);
        assert_eq!(stats.next_seq, 4);
        assert_eq!(monitor.num_customers(), 1);
        let preview = monitor.preview(CustomerId::new(7)).unwrap();
        assert_eq!(preview.window.raw(), 2, "flush advanced past two windows");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_plus_overlapping_wal_is_idempotent() {
        let dir = temp_dir("idempotent");
        // Build reference state, checkpoint at lsn 2, but leave all 3
        // records in the WAL — as if the crash hit between checkpoint
        // rename and WAL truncation.
        let fb = fallback();
        let mut reference = StabilityMonitor::new(fb.spec, fb.params).with_max_explanations(5);
        let ops = [
            "INGEST 1 2012-05-02 10 11",
            "INGEST 1 2012-06-02 10",
            "INGEST 1 2012-07-02 11",
        ];
        let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Never, 1).unwrap();
        for op in ops {
            wal.append(op).unwrap();
        }
        drop(wal);
        for op in &ops[..2] {
            let Request::Ingest(c, d, items) = Request::parse(op).unwrap() else {
                unreachable!()
            };
            reference.ingest(c, d, &Basket::new(items));
        }
        checkpoint::write_binary(&dir, 2, &reference.snapshot_bytes()).unwrap();
        {
            let Request::Ingest(c, d, items) = Request::parse(ops[2]).unwrap() else {
                unreachable!()
            };
            reference.ingest(c, d, &Basket::new(items));
        }

        let (monitor, stats) = recover(&dir, None).unwrap();
        assert_eq!(stats.checkpoint_lsn, Some(2));
        assert_eq!(stats.already_applied, 2, "covered records must be skipped");
        assert_eq!(stats.replayed, 1);
        assert_eq!(stats.next_seq, 4);
        assert_eq!(
            monitor.snapshot(),
            reference.snapshot(),
            "double-apply detected"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A WAL directory for `ops` as records 1..=n: a checkpoint after
    /// each op whose LSN is in `checkpoints`, the newest one corrupted,
    /// and a log holding records `log_from..=n` (empty when `log_from`
    /// is n + 1). Returns the state after every op.
    fn corrupt_newest(
        tag: &str,
        ops: &[&str],
        checkpoints: &[u64],
        log_from: u64,
    ) -> (PathBuf, StabilityMonitor) {
        let dir = temp_dir(tag);
        let fb = fallback();
        let mut monitor = StabilityMonitor::new(fb.spec, fb.params).with_max_explanations(5);
        let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Never, log_from).unwrap();
        let mut newest = None;
        for (seq, op) in (1u64..).zip(ops) {
            let Request::Ingest(c, d, items) = Request::parse(op).unwrap() else {
                unreachable!()
            };
            monitor.ingest(c, d, &Basket::new(items));
            if seq >= log_from {
                assert_eq!(wal.append(op).unwrap(), seq);
            }
            if checkpoints.contains(&seq) {
                newest =
                    Some(checkpoint::write_binary(&dir, seq, &monitor.snapshot_bytes()).unwrap());
            }
        }
        drop(wal);
        let newest = newest.expect("at least one checkpoint");
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        (dir, monitor)
    }

    const OPS: [&str; 3] = [
        "INGEST 3 2012-05-02 1",
        "INGEST 4 2012-05-03 2",
        "INGEST 5 2012-05-04 3",
    ];

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        // The crash hit after checkpoint 2's rename and before the WAL
        // truncation: the log still holds record 2, so falling back to
        // checkpoint 1 and replaying reaches the same state.
        let (dir, reference) = corrupt_newest("fallback", &OPS[..2], &[1, 2], 1);
        let (recovered, stats) = recover(&dir, None).unwrap();
        assert_eq!(stats.checkpoint_lsn, Some(1));
        assert_eq!(stats.corrupt_checkpoints, 1);
        assert_eq!((stats.already_applied, stats.replayed), (1, 1));
        assert_eq!(stats.next_seq, 3);
        assert_eq!(recovered.snapshot(), reference.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_resuming_past_the_restored_checkpoint_is_missing_records() {
        // Checkpoint 2 emptied the log, which then took record 3; with
        // checkpoint 2 unreadable, record 2 exists nowhere.
        let (dir, _) = corrupt_newest("gap", &OPS, &[1, 2], 3);
        match recover(&dir, None) {
            Err(RecoveryError::MissingRecords {
                restored: 1,
                first: 2,
                last: 2,
            }) => {}
            other => panic!("expected records 2..=2 missing, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skipped_checkpoint_beyond_the_log_is_missing_records() {
        // Checkpoint 3 emptied the log; with it unreadable, records 2
        // and 3 exist nowhere, though the log itself has no hole.
        let (dir, _) = corrupt_newest("beyond", &OPS, &[1, 3], 4);
        match recover(&dir, None) {
            Err(RecoveryError::MissingRecords {
                restored: 1,
                first: 2,
                last: 3,
            }) => {}
            other => panic!("expected records 2..=3 missing, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = temp_dir("torn");
        let wal_path = dir.join(WAL_FILE);
        let mut wal = Wal::open(&wal_path, SyncPolicy::Never, 1).unwrap();
        wal.append("INGEST 1 2012-05-02 1").unwrap();
        wal.append("INGEST 2 2012-05-02 2").unwrap();
        let log_end = wal.end().offset;
        drop(wal);
        // Tear the final frame in place: its last 3 bytes never reached
        // the disk, so the zero extent shows through them.
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let end = log_end as usize;
        bytes[end - 3..end].fill(0);
        std::fs::write(&wal_path, &bytes).unwrap();

        let (monitor, stats) = recover(&dir, Some(&fallback())).unwrap();
        assert_eq!(stats.replayed, 1, "only the intact record replays");
        assert!(stats.torn_bytes > 0);
        assert_eq!(monitor.num_customers(), 1);
        // The file is clean now: recovering again reports no tear and
        // appending continues from the right sequence number and offset.
        let (_, again) = recover(&dir, Some(&fallback())).unwrap();
        assert_eq!(again.torn_bytes, 0);
        assert_eq!(again.next_seq, 2);
        assert_eq!(again.wal_end, stats.wal_end);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_extent_is_a_clean_end_and_the_wal_resumes_at_the_last_frame() {
        let dir = temp_dir("extent");
        let wal_path = dir.join(WAL_FILE);
        let mut wal = Wal::open(&wal_path, SyncPolicy::Always, 1).unwrap();
        wal.append("INGEST 1 2012-05-02 1").unwrap();
        wal.append("INGEST 2 2012-05-02 2").unwrap();
        let live_end = wal.end();
        drop(wal);
        assert!(
            std::fs::metadata(&wal_path).unwrap().len() > live_end.offset,
            "the log keeps a zero extent past its last frame"
        );

        let (_, stats) = recover(&dir, Some(&fallback())).unwrap();
        assert_eq!(stats.torn_bytes, 0, "the zero extent is not a torn tail");
        assert_eq!(stats.log_end(), live_end);
        // A WAL reopened at the handed-over end writes its next frame
        // right after the last one, inside the extent.
        let mut wal = Wal::open_at(
            RealStorage::shared(),
            &wal_path,
            SyncPolicy::Always,
            stats.log_end(),
            crate::FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(wal.append("INGEST 3 2012-05-02 3").unwrap(), 3);
        drop(wal);
        let (monitor, again) = recover(&dir, Some(&fallback())).unwrap();
        assert_eq!((again.replayed, again.torn_bytes), (3, 0));
        assert_eq!(monitor.num_customers(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_records_are_an_error_not_a_guess() {
        let dir = temp_dir("foreign");
        let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Never, 1).unwrap();
        wal.append("SCORE 1").unwrap();
        drop(wal);
        assert!(matches!(
            recover(&dir, Some(&fallback())),
            Err(RecoveryError::BadRecord { seq: 1, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
