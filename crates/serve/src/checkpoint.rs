//! Atomic, versioned, checksummed checkpoints of the monitor state.
//!
//! A checkpoint is the `ATTRCKP2` framing — a fixed little-endian header
//! — around the binary monitor snapshot
//! ([`StabilityMonitor::snapshot_bytes`]):
//!
//! ```text
//! [0..8)   magic b"ATTRCKP2"
//! u64      lsn
//! u64      body_len
//! u32      body_crc32
//! [..]     body
//! ```
//!
//! The header carries the WAL sequence number the snapshot covers (all
//! records with `seq ≤ lsn` are folded in), the body length in bytes,
//! and a CRC-32 over the body — a reader can prove the file is complete
//! and uncorrupted before trusting a single byte of it. `attrition dump`
//! renders a checkpoint's state as text for people.
//!
//! Writes are crash-atomic: the file is written to `<path>.tmp`,
//! `sync_all`ed, then renamed over `<path>` (and the directory synced),
//! so a reader only ever observes the old complete checkpoint or the
//! new complete checkpoint, never a torn mixture. Checkpoints are named
//! `checkpoint-<lsn>.ckpt` inside the WAL directory and rotated;
//! recovery walks them newest-first and falls back past corrupt ones.
//!
//! [`StabilityMonitor::snapshot_bytes`]: attrition_core::StabilityMonitor::snapshot_bytes

use crate::env::{RealStorage, Storage};
use attrition_store::{ByteReader, ByteWriter};
use attrition_util::crc::crc32;
use std::path::{Path, PathBuf};

/// Checkpoint magic: "ATTRCKP" + framing version 2.
pub const MAGIC: [u8; 8] = *b"ATTRCKP2";

/// File extension of checkpoint files.
pub const EXTENSION: &str = "ckpt";

/// The encoding a server writes its checkpoints in. There is one: the
/// enum and [`DurabilityConfig::checkpoint_format`] stay only so that
/// code building a `DurabilityConfig` as a struct literal (the
/// benchmark's `perfbench/src/trace.rs` does) keeps compiling.
///
/// [`DurabilityConfig::checkpoint_format`]: crate::engine::DurabilityConfig::checkpoint_format
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFormat {
    /// The binary snapshot behind the `ATTRCKP2` header.
    Binary,
}

/// A successfully read and verified checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The WAL LSN this snapshot covers (replay records above it only).
    pub lsn: u64,
    /// The binary monitor snapshot, ready for
    /// `StabilityMonitor::restore_bytes`.
    pub body: Vec<u8>,
}

/// Why a checkpoint file was rejected.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// The file was read but failed verification; recovery skips it.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "cannot read checkpoint: {e}"),
            CheckpointError::Corrupt(reason) => write!(f, "corrupt checkpoint: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// The staging name [`atomic_write_in`] uses: `<file>.tmp` next to `path`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `bytes` to `path` crash-atomically: `<path>.tmp` → fsync →
/// rename → directory sync. On any error the previous `path` content
/// (if any) is still intact.
///
/// The directory sync failure is *propagated*, not swallowed: callers
/// (the server's checkpoint trigger) truncate the WAL right after a
/// checkpoint lands, and truncating against a rename that is not yet
/// durable would lose acknowledged data if power failed. `Storage`
/// implementations that genuinely cannot sync a directory report
/// success instead (see [`RealStorage`]).
pub fn atomic_write_in(storage: &dyn Storage, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    storage.write(&tmp, bytes)?;
    storage.sync(&tmp)?;
    storage.rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        storage.sync_dir(dir)?;
    }
    Ok(())
}

/// The canonical path of the checkpoint covering `lsn` inside `dir`.
/// Zero-padded so lexicographic and numeric order agree.
pub fn path_for(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("checkpoint-{lsn:020}.{EXTENSION}"))
}

/// Atomically write a checkpoint of `body` (a binary monitor snapshot)
/// covering `lsn` into `dir`.
pub fn write_binary(dir: &Path, lsn: u64, body: &[u8]) -> std::io::Result<PathBuf> {
    write_binary_in(&*RealStorage::shared(), dir, lsn, body)
}

/// [`write_binary`] against an explicit [`Storage`].
pub fn write_binary_in(
    storage: &dyn Storage,
    dir: &Path,
    lsn: u64,
    body: &[u8],
) -> std::io::Result<PathBuf> {
    let path = path_for(dir, lsn);
    let mut w = ByteWriter::with_capacity(28 + body.len());
    w.bytes(&MAGIC);
    w.u64(lsn);
    w.u64(body.len() as u64);
    w.u32(crc32(body));
    w.bytes(body);
    atomic_write_in(storage, &path, &w.into_bytes())?;
    Ok(path)
}

/// Read and verify the checkpoint at `path`.
pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
    read_in(&*RealStorage::shared(), path)
}

/// [`read`] against an explicit [`Storage`].
pub fn read_in(storage: &dyn Storage, path: &Path) -> Result<Checkpoint, CheckpointError> {
    let bytes = storage.read(path)?;
    let bad = |e: attrition_store::ByteError| CheckpointError::Corrupt(e.to_string());
    let mut r = ByteReader::new(&bytes);
    let magic = r.take(8).map_err(bad)?;
    if magic[..7] != MAGIC[..7] {
        return Err(CheckpointError::Corrupt(
            "not an ATTRCKP checkpoint (bad magic)".into(),
        ));
    }
    if magic != MAGIC {
        return Err(CheckpointError::Corrupt(format!(
            "unsupported checkpoint version {:?} (expected {:?})",
            magic[7] as char, MAGIC[7] as char
        )));
    }
    let lsn = r.u64().map_err(bad)?;
    let len = r.u64().map_err(bad)?;
    let crc = r.u32().map_err(bad)?;
    if len != r.remaining() as u64 {
        return Err(CheckpointError::Corrupt(format!(
            "body is {} bytes, header promises {len} (truncated write?)",
            r.remaining()
        )));
    }
    let body = r.take(len as usize).map_err(bad)?;
    if crc32(body) != crc {
        return Err(CheckpointError::Corrupt("body checksum mismatch".into()));
    }
    Ok(Checkpoint {
        lsn,
        body: body.to_vec(),
    })
}

/// Parse a checkpoint file name (`checkpoint-<lsn>.ckpt`, or the
/// `.tmp`-suffixed staging form when `staging`) into its LSN.
fn parse_name(name: &str, staging: bool) -> Option<u64> {
    let rest = name.strip_prefix("checkpoint-")?;
    let digits = if staging {
        rest.strip_suffix(&format!(".{EXTENSION}.tmp"))?
    } else {
        rest.strip_suffix(&format!(".{EXTENSION}"))?
    };
    digits.parse::<u64>().ok()
}

/// Checkpoint files in `dir`, newest (highest LSN) first. Files whose
/// names do not parse are ignored. A missing directory lists as empty.
pub fn list(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_in(&*RealStorage::shared(), dir)
}

/// [`list`] against an explicit [`Storage`].
pub fn list_in(storage: &dyn Storage, dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_named(storage, dir, false)
}

/// Leftover `checkpoint-*.ckpt.tmp` staging files in `dir`, newest
/// first. A crash between the staging write and the rename (or a
/// power-lost rename the directory never made durable) strands one of
/// these; recovery salvages a fully verified tmp as a last-resort
/// candidate after every final checkpoint has been tried.
pub fn list_tmp_in(storage: &dyn Storage, dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_named(storage, dir, true)
}

fn list_named(
    storage: &dyn Storage,
    dir: &Path,
    staging: bool,
) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for name in storage.list(dir)? {
        if let Some(lsn) = parse_name(&name, staging) {
            found.push((lsn, dir.join(name)));
        }
    }
    found.sort_by_key(|&(lsn, _)| std::cmp::Reverse(lsn));
    Ok(found)
}

/// Delete all but the newest `keep` checkpoints in `dir`; returns how
/// many files were removed. Stale staging files (tmp LSN ≤ the newest
/// final checkpoint) are swept too — they are fully superseded and
/// never worth salvaging. Deletion failures are ignored (an undeleted
/// old checkpoint is harmless — recovery prefers newer ones).
pub fn prune_in(storage: &dyn Storage, dir: &Path, keep: usize) -> std::io::Result<usize> {
    let mut removed = 0;
    let finals = list_in(storage, dir)?;
    let newest = finals.first().map(|&(lsn, _)| lsn);
    for (_, path) in finals.into_iter().skip(keep) {
        if storage.remove(&path).is_ok() {
            removed += 1;
        }
    }
    if let Some(newest) = newest {
        for (lsn, path) in list_tmp_in(storage, dir)? {
            if lsn <= newest && storage.remove(&path).is_ok() {
                removed += 1;
            }
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("attrition_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn real() -> std::sync::Arc<dyn Storage> {
        RealStorage::shared()
    }

    const BODY: &[u8] = b"ATTRMON1 stand-in body";

    #[test]
    fn binary_write_read_roundtrip() {
        let dir = temp_dir("bin_roundtrip");
        let body = [0u8, 1, 2, 0xFF, 0x7E, 42];
        let path = write_binary(&dir, 99, &body).unwrap();
        let ckpt = read(&path).unwrap();
        assert_eq!(ckpt.lsn, 99);
        assert_eq!(ckpt.body, body);
        // No leftover temp file; listing sees exactly the checkpoint.
        assert_eq!(list(&dir).unwrap(), vec![(99, path)]);
        assert!(list_tmp_in(&*real(), &dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_corruption_is_detected_not_loaded() {
        let dir = temp_dir("bin_corrupt");
        let body = vec![7u8; 100];
        let path = write_binary(&dir, 7, &body).unwrap();
        let clean = fs::read(&path).unwrap();
        // Flip one byte in the body → checksum mismatch.
        for pos in [28usize, clean.len() - 1] {
            let mut bad = clean.clone();
            bad[pos] ^= 0x01;
            fs::write(&path, &bad).unwrap();
            assert!(matches!(read(&path), Err(CheckpointError::Corrupt(_))));
        }
        // Truncation anywhere → header or length failure.
        for cut in [3usize, 8, 20, clean.len() - 1] {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                matches!(read(&path), Err(CheckpointError::Corrupt(_))),
                "cut {cut}"
            );
        }
        // Wrong version byte → named unsupported-version error.
        let mut bad = clean.clone();
        bad[7] = b'3';
        fs::write(&path, &bad).unwrap();
        match read(&path) {
            Err(CheckpointError::Corrupt(reason)) => {
                assert!(reason.contains("unsupported"), "{reason}")
            }
            other => panic!("wrong version must be Corrupt, got {other:?}"),
        }
        // The intact file still reads.
        fs::write(&path, &clean).unwrap();
        assert_eq!(read(&path).unwrap().body, body);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_not_loaded() {
        // Files under a checkpoint name that are not ATTRCKP2 checkpoints
        // at all — garbage, an empty file, a monitor's text rendering —
        // fail verification (recovery skips them) instead of loading or
        // erroring as I/O.
        let dir = temp_dir("corrupt");
        let path = path_for(&dir, 7);
        for bytes in [
            &b"not a checkpoint\nat all\n"[..],
            &b""[..],
            &b"#monitor,15461,m1,2,5\nc,1,0,0\n"[..],
        ] {
            fs::write(&path, bytes).unwrap();
            match read(&path) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("{bytes:?} must be Corrupt, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_orders_newest_first_and_prune_keeps_n() {
        let dir = temp_dir("rotate");
        for lsn in [5u64, 900, 17] {
            write_binary(&dir, lsn, BODY).unwrap();
        }
        // A stray non-checkpoint file is ignored.
        fs::write(dir.join("wal.log"), b"").unwrap();
        let listed = list(&dir).unwrap();
        let lsns: Vec<u64> = listed.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(lsns, vec![900, 17, 5]);
        assert_eq!(prune_in(&*real(), &dir, 2).unwrap(), 1);
        let lsns: Vec<u64> = list(&dir).unwrap().iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(lsns, vec![900, 17]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stranded_tmp_is_listed_and_pruned_when_superseded() {
        let dir = temp_dir("tmp");
        let storage = real();
        write_binary(&dir, 5, BODY).unwrap();
        // Strand staging files as a crash between write and rename would.
        fs::write(dir.join("checkpoint-00000000000000000003.ckpt.tmp"), b"x").unwrap();
        fs::write(dir.join("checkpoint-00000000000000000009.ckpt.tmp"), b"y").unwrap();
        let tmps = |storage: &dyn Storage| -> Vec<u64> {
            list_tmp_in(storage, &dir)
                .unwrap()
                .iter()
                .map(|t| t.0)
                .collect()
        };
        assert_eq!(tmps(&*storage), vec![9, 3]);
        // Tmps never appear in the final listing.
        assert_eq!(list(&dir).unwrap().len(), 1);
        // Prune sweeps the superseded tmp (3 ≤ 5) but keeps the newer one.
        assert_eq!(prune_in(&*storage, &dir, 4).unwrap(), 1);
        assert_eq!(tmps(&*storage), vec![9]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = temp_dir("atomic");
        let path = dir.join("state.ckpt");
        atomic_write_in(&*real(), &path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write_in(&*real(), &path, b"second, longer content").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer content");
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
