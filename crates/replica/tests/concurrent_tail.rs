//! The shipper against a torn, truncating tail — concurrently.
//!
//! The primary's WAL is appended, torn at its end (a crash mid-frame),
//! scanned and `truncate_to_valid`'d in a loop while a second thread keeps fetching
//! from the same directory through [`ReplicationLog`]. The shipper
//! holds no lock against the writer; its safety rests entirely on the
//! CRC framing and the durable-floor cap, so this test demands:
//!
//! 1. every record ever served carries exactly the op text that was
//!    validly appended at that sequence number — garbage bytes past the
//!    truncation point are never decoded into a record, and
//! 2. no served record exceeds the floor the caller passed.

use attrition_replica::{ReplicationLog, Shipment};
use attrition_serve::wal::{read_records, truncate_to_valid, SyncPolicy, Wal, WAL_FILE};
use attrition_serve::RealStorage;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("attrition_repl_tail_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Removes the test's directory when dropped, so a failing assert
/// cleans up too.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The op validly appended at sequence `seq` — deterministic, so the
/// reader can verify any served record without coordination.
fn op_for(seq: u64) -> String {
    format!("INGEST {seq} 2012-05-02 7 {}", seq * 31)
}

#[test]
fn concurrent_truncate_to_valid_never_leaks_torn_bytes_to_the_shipper() {
    let dir = temp_dir("concurrent");
    let _cleanup = RemoveOnDrop(dir.clone());
    let wal_path = dir.join(WAL_FILE);
    // Create an empty log so the reader never races file creation.
    drop(Wal::open(&wal_path, SyncPolicy::Always, 1).unwrap());

    // `floor` publishes the highest fully-appended, fsynced sequence
    // number — the same durable floor the real primary caps fetches at.
    let floor = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));

    let reader = {
        let (dir, floor, done, served) = (
            dir.clone(),
            Arc::clone(&floor),
            Arc::clone(&done),
            Arc::clone(&served),
        );
        std::thread::spawn(move || {
            let log = ReplicationLog::new(RealStorage::shared(), &dir);
            let mut after = 0u64;
            while !done.load(Ordering::SeqCst) {
                let cap = floor.load(Ordering::SeqCst);
                match log.fetch(after, 16, cap) {
                    Ok(Shipment::Records(records)) => {
                        let mut expect = after + 1;
                        for r in &records {
                            assert_eq!(r.seq, expect, "batches are contiguous");
                            assert!(r.seq <= cap, "served past the floor: {} > {cap}", r.seq);
                            assert_eq!(
                                r.op,
                                op_for(r.seq),
                                "seq {} served bytes that were never validly appended",
                                r.seq
                            );
                            expect += 1;
                        }
                        served.fetch_add(records.len() as u64, Ordering::SeqCst);
                        after = expect - 1;
                        // Rewind sometimes so torn regions are re-read
                        // long after they were truncated away.
                        if after.is_multiple_of(7) {
                            after = after.saturating_sub(5);
                        }
                    }
                    // No checkpoints are ever written here, so a
                    // snapshot fallback would mean the reader decoded a
                    // hole that cannot exist.
                    Ok(Shipment::Snapshot { lsn, .. }) => {
                        panic!("impossible snapshot fallback at lsn {lsn}")
                    }
                    // Transient: the writer truncated mid-read. The
                    // next round re-fetches.
                    Err(_) => {}
                }
            }
        })
    };

    // Writer: cycles of append → torn tail (raw garbage) → scan →
    // truncate_to_valid, exactly the crash/recovery sequence, while the
    // reader runs unsynchronized.
    let mut next_seq = 1u64;
    for cycle in 0..60u64 {
        let mut wal = Wal::open(&wal_path, SyncPolicy::Always, next_seq).unwrap();
        for _ in 0..3 {
            let seq = wal.append(&op_for(next_seq)).unwrap();
            assert_eq!(seq, next_seq);
            floor.store(next_seq, Ordering::SeqCst);
            next_seq += 1;
        }
        let log_end = wal.end().offset;
        drop(wal);

        // Tear the tail at the log's end (over the zero extent, where
        // the next frame would have gone): a partial frame whose header
        // promises more payload than follows, plus bytes that must
        // never decode.
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        file.seek(SeekFrom::Start(log_end)).unwrap();
        let torn_len = 9 + (cycle % 7) as usize;
        let mut garbage = Vec::with_capacity(8 + torn_len);
        garbage.extend_from_slice(&(200u32 + cycle as u32).to_le_bytes()); // length
        garbage.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // wrong CRC
        garbage.resize(garbage.len() + torn_len, 0xA5);
        file.write_all(&garbage).unwrap();
        file.sync_all().unwrap();
        drop(file);

        // Recovery's contract: scan stops at the last valid frame and
        // the torn suffix — the garbage and the extent past it — is
        // chopped before the next generation appends.
        let scan = read_records(&wal_path).unwrap();
        let file_len = std::fs::metadata(&wal_path).unwrap().len();
        assert_eq!(scan.valid_len, log_end, "cycle {cycle}");
        assert!(file_len >= log_end + garbage.len() as u64, "cycle {cycle}");
        assert_eq!(scan.torn_bytes, file_len - log_end, "cycle {cycle}");
        assert_eq!(scan.records.last().unwrap().seq, next_seq - 1);
        truncate_to_valid(&wal_path, scan.valid_len).unwrap();
    }

    done.store(true, Ordering::SeqCst);
    reader.join().expect("the tail reader must never panic");

    // The reader actually raced the writer through real data.
    assert_eq!(next_seq - 1, 180);
    assert!(
        served.load(Ordering::SeqCst) >= 180,
        "the shipper must have served the stream at least once: {}",
        served.load(Ordering::SeqCst)
    );
}
