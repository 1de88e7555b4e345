//! The primary-side shipper: tail the WAL, serve record batches, fall
//! back to a checkpoint snapshot when the log has moved on.
//!
//! [`ReplicationLog`] is a *read-only* view over the same WAL directory
//! the engine appends to. It never holds the durability lock: the WAL's
//! CRC framing makes a concurrent read safe by construction — a frame
//! that has not fully landed fails its checksum and the walk stops at
//! the last valid boundary, exactly the rule recovery relies on. Like
//! recovery, it walks the log's frames in place and allocates only the
//! records it ships. The caller additionally caps every fetch at the
//! engine's durable floor ([`Engine::wal_synced_seq`]), so a record is
//! shipped only once it would also survive a primary crash — shipping
//! an unsynced record and then crashing would let the primary reassign
//! that LSN to a *different* operation, silently diverging the replica.
//!
//! When `after + 1` is no longer in the log (a checkpoint truncated
//! it), the newest readable checkpoint is shipped instead; by the
//! checkpoint invariant (truncation only happens after a covering
//! checkpoint is durable) such a checkpoint always exists and always
//! covers the missing records.
//!
//! [`Engine::wal_synced_seq`]: attrition_serve::Engine::wal_synced_seq

use attrition_serve::checkpoint::{self, CheckpointFormat};
use attrition_serve::wal::{read_log, Frames, WalRecord, WAL_FILE};
use attrition_serve::Storage;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What one fetch ships back (transport-independent; see
/// [`wire`](crate::wire) for the line encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shipment {
    /// Contiguous records `after+1 ..`, ascending, possibly empty.
    Records(Vec<WalRecord>),
    /// `after+1` is gone from the log: bootstrap from this checkpoint.
    Snapshot {
        /// The LSN the snapshot covers.
        lsn: u64,
        /// On-disk framing of the body.
        format: CheckpointFormat,
        /// The raw checkpoint body.
        body: Vec<u8>,
    },
}

/// A read-only tailer over a primary's WAL directory.
#[derive(Clone)]
pub struct ReplicationLog {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
}

impl ReplicationLog {
    /// A tailer over `dir` (the directory holding `wal.log` and
    /// `checkpoint-*.ckpt`).
    pub fn new(storage: Arc<dyn Storage>, dir: &Path) -> ReplicationLog {
        ReplicationLog {
            storage,
            dir: dir.to_owned(),
        }
    }

    /// The directory being tailed.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Ship records `after+1 ..= floor`, at most `max` of them; or the
    /// newest checkpoint when the log no longer holds `after+1`.
    ///
    /// `floor` must be the engine's durable floor; records above it are
    /// never served (see the module docs for why).
    pub fn fetch(&self, after: u64, max: usize, floor: u64) -> std::io::Result<Shipment> {
        if after >= floor {
            return Ok(Shipment::Records(Vec::new()));
        }
        let bytes = read_log(&*self.storage, &self.dir.join(WAL_FILE))?;
        let shippable: Vec<WalRecord> = Frames::new(&bytes)
            .skip_while(|&(seq, _)| seq <= after)
            .take_while(|&(seq, _)| seq <= floor)
            .take(max)
            .map(|(seq, op)| WalRecord {
                seq,
                op: op.to_owned(),
            })
            .collect();
        match shippable.first() {
            Some(first) if first.seq == after + 1 => Ok(Shipment::Records(shippable)),
            // The record after `after` is not in the log (either the
            // log's oldest record is newer, or the log is empty): a
            // checkpoint truncated it, so ship the newest readable one.
            _ => self.newest_checkpoint(after),
        }
    }

    /// Ship the newest readable checkpoint.
    ///
    /// Keep-N pruning runs concurrently with shipping: between listing
    /// the directory and reading a file, a fresh checkpoint can land
    /// and demote the one we picked past the keep window, so the read
    /// comes back `NotFound`. That is not a failure — by the pruning
    /// invariant the re-listed directory always holds a *newer*
    /// checkpoint that still covers `after` — so the listing is
    /// re-resolved (bounded, to turn a livelock into an error) instead
    /// of failing the bootstrap. Corrupt files are skipped within a
    /// pass, exactly as recovery skips them.
    fn newest_checkpoint(&self, after: u64) -> std::io::Result<Shipment> {
        for _pass in 0..4 {
            let mut pruned_mid_ship = false;
            for (_lsn, path) in checkpoint::list_in(&*self.storage, &self.dir)? {
                match checkpoint::read_in(&*self.storage, &path) {
                    Ok(ckpt) => {
                        return Ok(Shipment::Snapshot {
                            lsn: ckpt.lsn,
                            format: ckpt.format,
                            body: ckpt.body,
                        })
                    }
                    Err(checkpoint::CheckpointError::Io(e))
                        if e.kind() == std::io::ErrorKind::NotFound =>
                    {
                        pruned_mid_ship = true;
                    }
                    Err(_) => continue, // corrupt: fall back, as recovery does
                }
            }
            if !pruned_mid_ship {
                break;
            }
            attrition_obs::counter("serve.repl.ship_reresolves").inc();
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!(
                "record {} is gone from the log and no readable checkpoint covers it",
                after + 1
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_serve::wal::{SyncPolicy, Wal};
    use attrition_serve::{FaultPlan, RealStorage};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("attrition_repllog_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_wal(dir: &Path, ops: &[&str]) {
        let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Always, 1).unwrap();
        for op in ops {
            wal.append(op).unwrap();
        }
    }

    #[test]
    fn fetch_serves_contiguous_batches_capped_at_the_floor() {
        let dir = temp_dir("floor");
        write_wal(
            &dir,
            &[
                "INGEST 1 2012-05-02",
                "INGEST 2 2012-05-02",
                "FLUSH 2012-06-01",
            ],
        );
        let log = ReplicationLog::new(RealStorage::shared(), &dir);

        // Caught up (after == floor): empty batch.
        assert_eq!(log.fetch(3, 100, 3).unwrap(), Shipment::Records(vec![]));
        // The floor hides records above it even though they are on disk.
        match log.fetch(0, 100, 2).unwrap() {
            Shipment::Records(records) => {
                assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<u64>>(), [1, 2]);
            }
            other => panic!("expected records, got {other:?}"),
        }
        // `max` caps the batch.
        match log.fetch(0, 1, 3).unwrap() {
            Shipment::Records(records) => assert_eq!(records.len(), 1),
            other => panic!("expected records, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_log_falls_back_to_the_newest_checkpoint() {
        let dir = temp_dir("snap");
        checkpoint::write_binary(&dir, 5, b"ATTRMON1-placeholder-body").unwrap();
        // Log continues after the checkpoint truncation: seqs 6, 7.
        let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Always, 6).unwrap();
        wal.append("INGEST 9 2012-07-02").unwrap();
        wal.append("INGEST 9 2012-07-03").unwrap();
        let log = ReplicationLog::new(RealStorage::shared(), &dir);

        // A replica at 2 cannot get record 3: snapshot instead.
        match log.fetch(2, 100, 7).unwrap() {
            Shipment::Snapshot { lsn, format, body } => {
                assert_eq!(lsn, 5);
                assert_eq!(format, CheckpointFormat::Binary);
                assert_eq!(body, b"ATTRMON1-placeholder-body");
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        // A replica at 5 (the checkpoint LSN) reads the tail normally.
        match log.fetch(5, 100, 7).unwrap() {
            Shipment::Records(records) => {
                assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<u64>>(), [6, 7]);
            }
            other => panic!("expected records, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_record_without_checkpoint_is_an_error_not_a_guess() {
        let dir = temp_dir("nockpt");
        let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Always, 10).unwrap();
        wal.append("INGEST 1 2012-05-02").unwrap();
        let log = ReplicationLog::new(RealStorage::shared(), &dir);
        assert!(log.fetch(3, 100, 10).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Storage that simulates keep-N pruning racing a snapshot ship:
    /// the first read of the staged checkpoint path removes the file
    /// (as a concurrent prune would), drops a newer checkpoint in its
    /// place, and reports `NotFound`.
    struct PruneRace {
        inner: Arc<dyn Storage>,
        victim: PathBuf,
        replacement_lsn: u64,
        fired: std::sync::Mutex<bool>,
    }

    impl Storage for PruneRace {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            if path == self.victim {
                let mut fired = self.fired.lock().unwrap();
                if !*fired {
                    *fired = true;
                    self.inner.remove(&self.victim)?;
                    checkpoint::write_binary_in(
                        &*self.inner,
                        self.victim.parent().unwrap(),
                        self.replacement_lsn,
                        b"ATTRMON1-newer-body",
                    )?;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        "pruned mid-ship",
                    ));
                }
            }
            self.inner.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.write(path, bytes)
        }
        fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.write_at(path, offset, bytes)
        }
        fn sync(&self, path: &Path) -> std::io::Result<()> {
            self.inner.sync(path)
        }
        fn set_len(&self, path: &Path, len: u64) -> std::io::Result<u64> {
            self.inner.set_len(path, len)
        }
        fn len(&self, path: &Path) -> std::io::Result<u64> {
            self.inner.len(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove(path)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.sync_dir(dir)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
            self.inner.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.create_dir_all(dir)
        }
    }

    #[test]
    fn checkpoint_pruned_mid_ship_re_resolves_to_the_newer_one() {
        let dir = temp_dir("prunerace");
        let victim = checkpoint::write_binary(&dir, 5, b"ATTRMON1-placeholder-body").unwrap();
        // Log starts past the checkpoint, so a replica at 2 needs it.
        let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Always, 12).unwrap();
        wal.append("INGEST 9 2012-07-02").unwrap();
        let storage: Arc<dyn Storage> = Arc::new(PruneRace {
            inner: RealStorage::shared(),
            victim,
            replacement_lsn: 11,
            fired: std::sync::Mutex::new(false),
        });
        let log = ReplicationLog::new(storage, &dir);
        // The first read vaporizes checkpoint 5 and lands checkpoint 11
        // — the ship must re-list and serve the newer one, not error.
        match log.fetch(2, 100, 12).unwrap() {
            Shipment::Snapshot { lsn, body, .. } => {
                assert_eq!(lsn, 11);
                assert_eq!(body, b"ATTRMON1-newer-body");
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_never_served() {
        let dir = temp_dir("torn");
        // Crash fault: record 3 loses its trailing bytes.
        let mut wal = Wal::open_with_faults(
            &dir.join(WAL_FILE),
            SyncPolicy::Never,
            1,
            FaultPlan::crash_after_torn(3, 5),
        )
        .unwrap();
        for i in 1..=3u64 {
            let _ = wal.append(&format!("INGEST {i} 2012-05-02"));
        }
        let log = ReplicationLog::new(RealStorage::shared(), &dir);
        // Even with a floor above the torn record, only the valid
        // prefix ships: the scan stops at the first bad frame.
        match log.fetch(0, 100, 3).unwrap() {
            Shipment::Records(records) => {
                assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<u64>>(), [1, 2]);
            }
            other => panic!("expected records, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
