//! The simulated environment: a logical clock and an in-memory
//! filesystem with crash semantics.
//!
//! [`SimStorage`] implements the serve stack's
//! [`Storage`](attrition_serve::Storage) seam over `BTreeMap`s (sorted,
//! so every iteration order is deterministic) and models exactly the
//! crash behaviors POSIX permits:
//!
//! - **unsynced writes may tear**: at a crash, a file reverts to its
//!   last fsynced content, and then each write made since — positioned
//!   or whole-file — survives whole, torn (a seeded prefix), or not at
//!   all, each on its own draw: the page cache flushes in no promised
//!   order. Torn frames, and frames that landed past a hole, are what
//!   the WAL's CRC framing and its clean-end rule must detect;
//! - **namespace operations need a directory sync**: renames and
//!   removes sit in a pending journal until
//!   [`sync_dir`](attrition_serve::Storage::sync_dir); at a crash a
//!   seeded cut of the journal is rolled back *in order* (metadata
//!   journaling preserves ordering), which is how a crash strands a
//!   written-and-fsynced `checkpoint-*.ckpt.tmp` whose rename never
//!   became durable;
//! - **file creation settles with the file's own fsync** (the common
//!   journaled-filesystem behavior), so a synced WAL cannot vanish
//!   wholesale.
//!
//! [`SimClock`] is a logical clock: `now()` reads a counter,
//! `sleep(d)`/[`advance`](SimClock::advance) move it forward. Nothing
//! in a simulation ever reads wall time, so a "30 s" checkpoint
//! interval elapses purely because the event loop says so.

use attrition_serve::{Clock, SplitMix64, Storage};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Logical time behind a mutex; shared by the event loop and the engine.
#[derive(Debug, Default)]
pub struct SimClock {
    now: Mutex<Duration>,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Advance logical time by `d` (what the event loop does between
    /// events).
    pub fn advance(&self, d: Duration) {
        let mut now = self.now.lock().unwrap_or_else(|p| p.into_inner());
        *now += d;
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        *self.now.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn sleep(&self, duration: Duration) {
        // A sleeping simulated thread just moves the world forward.
        self.advance(duration);
    }
}

#[derive(Debug, Clone)]
struct Entry {
    /// The live view (what reads observe).
    data: Vec<u8>,
    /// The on-disk view a crash reverts to; `None` until the first
    /// fsync of this file.
    durable: Option<Vec<u8>>,
    /// Writes since the last fsync, oldest first: what a crash may keep,
    /// tear or drop, each on its own.
    unsynced: Vec<Unsynced>,
}

impl Entry {
    fn new() -> Entry {
        Entry {
            data: Vec::new(),
            durable: None,
            unsynced: Vec::new(),
        }
    }

    /// The content becomes durable (an fsync, or a syncing truncation).
    fn settle(&mut self) {
        self.durable = Some(self.data.clone());
        self.unsynced.clear();
    }
}

/// One write not yet made durable by an fsync.
#[derive(Debug, Clone)]
enum Unsynced {
    /// A whole-file [`write`](Storage::write): truncate, then write.
    Replace(Vec<u8>),
    /// A positioned [`write_at`](Storage::write_at).
    At { offset: usize, bytes: Vec<u8> },
}

/// Apply `bytes` at `offset` of `image`, zero-filling a gap and
/// extending it when the write ends past its length.
fn write_into(image: &mut Vec<u8>, offset: usize, bytes: &[u8]) {
    let end = offset + bytes.len();
    if image.len() < end {
        image.resize(end, 0);
    }
    image[offset..end].copy_from_slice(bytes);
}

/// A namespace operation not yet made durable by a directory sync.
#[derive(Debug, Clone)]
enum Pending {
    Create(PathBuf),
    Rename {
        from: PathBuf,
        to: PathBuf,
        displaced: Option<Entry>,
    },
    Remove {
        path: PathBuf,
        entry: Entry,
    },
}

#[derive(Debug, Default)]
struct SimFs {
    files: BTreeMap<PathBuf, Entry>,
    dirs: BTreeSet<PathBuf>,
    pending: Vec<Pending>,
}

/// Counters a simulation report can read back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Files that lost or tore at least one unsynced write, across all
    /// crashes.
    pub torn_files: u64,
    /// Namespace operations rolled back across all crashes.
    pub rolled_back_ops: u64,
    /// Crashes simulated.
    pub crashes: u64,
}

/// The in-memory crash-faithful filesystem. See the module docs.
#[derive(Debug, Default)]
pub struct SimStorage {
    fs: Mutex<SimFs>,
    stats: Mutex<StorageStats>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

impl SimStorage {
    /// An empty filesystem.
    pub fn new() -> SimStorage {
        SimStorage::default()
    }

    /// Crash counters so far.
    pub fn stats(&self) -> StorageStats {
        *self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Simulate power loss: roll back a seeded suffix of the pending
    /// namespace journal (in reverse order — ordering is preserved, a
    /// later op never survives an earlier one's loss), then rebuild every
    /// file from its durable content plus each unsynced write since,
    /// oldest first, kept whole, torn to a seeded prefix, or dropped —
    /// one seeded draw per write. Afterwards the surviving state *is* the
    /// durable state, as a remounted disk would present it.
    pub fn crash(&self, rng: &mut SplitMix64) {
        let mut fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        stats.crashes += 1;
        let cut = rng.below(fs.pending.len() as u64 + 1) as usize;
        let rolled_back: Vec<Pending> = fs.pending.drain(cut..).collect();
        stats.rolled_back_ops += rolled_back.len() as u64;
        for op in rolled_back.into_iter().rev() {
            match op {
                Pending::Create(path) => {
                    fs.files.remove(&path);
                }
                Pending::Rename {
                    from,
                    to,
                    displaced,
                } => {
                    if let Some(entry) = fs.files.remove(&to) {
                        fs.files.insert(from, entry);
                    }
                    if let Some(entry) = displaced {
                        fs.files.insert(to, entry);
                    }
                }
                Pending::Remove { path, entry } => {
                    fs.files.insert(path, entry);
                }
            }
        }
        // Ops that survived the cut are now settled on disk.
        fs.pending.clear();
        for entry in fs.files.values_mut() {
            let mut image = entry.durable.take().unwrap_or_default();
            let mut torn = false;
            for write in entry.unsynced.drain(..) {
                let len = match &write {
                    Unsynced::Replace(bytes) | Unsynced::At { bytes, .. } => bytes.len(),
                };
                let kept = match rng.below(3) {
                    0 => len,
                    1 => rng.below(len as u64) as usize,
                    _ => 0,
                };
                torn |= kept < len;
                match write {
                    Unsynced::Replace(bytes) if kept > 0 => image = bytes[..kept].to_vec(),
                    Unsynced::At { offset, bytes } if kept > 0 => {
                        write_into(&mut image, offset, &bytes[..kept])
                    }
                    _ => {} // dropped whole: the old bytes stay
                }
            }
            if torn {
                stats.torn_files += 1;
            }
            entry.data = image;
            entry.settle();
        }
    }
}

impl Storage for SimStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        fs.files
            .get(path)
            .map(|e| e.data.clone())
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        let fs = &mut *fs;
        let entry = fs.files.entry(path.to_owned()).or_insert_with(|| {
            fs.pending.push(Pending::Create(path.to_owned()));
            Entry::new()
        });
        entry.data = bytes.to_owned();
        entry.unsynced.push(Unsynced::Replace(bytes.to_owned()));
        Ok(())
    }

    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let mut fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        let fs = &mut *fs;
        let entry = fs.files.entry(path.to_owned()).or_insert_with(|| {
            fs.pending.push(Pending::Create(path.to_owned()));
            Entry::new()
        });
        if !bytes.is_empty() {
            write_into(&mut entry.data, offset as usize, bytes);
            entry.unsynced.push(Unsynced::At {
                offset: offset as usize,
                bytes: bytes.to_owned(),
            });
        }
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        let entry = fs.files.get_mut(path).ok_or_else(|| not_found(path))?;
        entry.settle();
        // A journaled filesystem commits the new file's directory entry
        // with its first data sync; pending renames/removes still need
        // the explicit directory sync.
        fs.pending
            .retain(|op| !matches!(op, Pending::Create(p) if p == path));
        Ok(())
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<u64> {
        let mut fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        let entry = fs.files.get_mut(path).ok_or_else(|| not_found(path))?;
        entry.data.resize(len as usize, 0);
        // Mirrors RealStorage::set_len, which syncs the truncation.
        entry.settle();
        Ok(len)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        fs.files
            .get(path)
            .map(|e| e.data.len() as u64)
            .ok_or_else(|| not_found(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        let entry = fs.files.remove(from).ok_or_else(|| not_found(from))?;
        let displaced = fs.files.insert(to.to_owned(), entry);
        fs.pending.push(Pending::Rename {
            from: from.to_owned(),
            to: to.to_owned(),
            displaced,
        });
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        let entry = fs.files.remove(path).ok_or_else(|| not_found(path))?;
        fs.pending.push(Pending::Remove {
            path: path.to_owned(),
            entry,
        });
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mut fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        fs.pending.clear();
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        let mut names = Vec::new();
        for path in fs.files.keys() {
            if path.parent() == Some(dir) {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    names.push(name.to_owned());
                }
            }
        }
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut fs = self.fs.lock().unwrap_or_else(|p| p.into_inner());
        fs.dirs.insert(dir.to_owned());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn clock_advances_on_sleep() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.sleep(Duration::from_millis(250));
        clock.advance(Duration::from_millis(750));
        assert_eq!(clock.now(), Duration::from_secs(1));
    }

    #[test]
    fn synced_content_survives_a_crash_unsynced_tail_tears() {
        let write = |storage: &SimStorage| {
            storage
                .write_at(&p("/d/wal.log"), 0, b"durable-part")
                .unwrap();
            storage.sync(&p("/d/wal.log")).unwrap();
            storage
                .write_at(&p("/d/wal.log"), 12, b"-unsynced-tail")
                .unwrap();
        };
        let storage = SimStorage::new();
        write(&storage);
        let mut rng = SplitMix64::new(7);
        storage.crash(&mut rng);
        let content = storage.read(&p("/d/wal.log")).unwrap();
        assert!(content.starts_with(b"durable-part"), "{content:?}");
        assert!(content.len() <= b"durable-part-unsynced-tail".len());
        // Determinism: same seed, same outcome.
        let storage2 = SimStorage::new();
        write(&storage2);
        storage2.crash(&mut SplitMix64::new(7));
        assert_eq!(storage2.read(&p("/d/wal.log")).unwrap(), content);
    }

    #[test]
    fn each_unsynced_write_survives_whole_torn_or_not_at_all() {
        // Two in-place writes over a synced zero extent: across seeds a
        // crash keeps each one whole, tears it, or drops it, on its own
        // — including the second surviving while the first is lost,
        // which leaves a hole a log reader must not read past.
        let path = p("/d/wal.log");
        let (mut whole, mut torn, mut lost, mut hole) = (false, false, false, false);
        for seed in 0..64 {
            let storage = SimStorage::new();
            storage.write_at(&path, 0, &[0; 16]).unwrap();
            storage.sync(&path).unwrap();
            storage.write_at(&path, 0, b"AAAA").unwrap();
            storage.write_at(&path, 4, b"BBBB").unwrap();
            storage.crash(&mut SplitMix64::new(seed));
            let content = storage.read(&path).unwrap();
            assert_eq!(content.len(), 16, "the extent's length is durable");
            let first = &content[..4];
            whole |= first == b"AAAA";
            torn |= first != b"AAAA" && first[0] == b'A';
            lost |= first == [0; 4];
            hole |= first == [0; 4] && content[4] == b'B';
            // A write only ever lands as a prefix of itself.
            assert!(first.iter().all(|&b| b == b'A' || b == 0), "{content:?}");
            assert!(first.iter().skip_while(|&&b| b == b'A').all(|&b| b == 0));
        }
        assert!(
            whole && torn && lost && hole,
            "{whole} {torn} {lost} {hole}"
        );
    }

    #[test]
    fn a_write_past_the_end_that_is_lost_leaves_the_old_length() {
        let path = p("/d/grow");
        for seed in 0..32 {
            let storage = SimStorage::new();
            storage.write_at(&path, 0, b"abc").unwrap();
            storage.sync(&path).unwrap();
            storage.write_at(&path, 3, &[7; 8]).unwrap();
            storage.crash(&mut SplitMix64::new(seed));
            let content = storage.read(&path).unwrap();
            assert!(content.starts_with(b"abc"));
            assert!(content.len() <= 11);
            assert!(content[3..].iter().all(|&b| b == 7));
        }
    }

    #[test]
    fn never_synced_file_may_vanish_entirely() {
        // With the right seed, an unsynced file loses everything: its
        // creation rolls back, or its one write is dropped.
        for seed in 0..64 {
            let storage = SimStorage::new();
            storage.write_at(&p("/d/f"), 0, b"abc").unwrap();
            storage.crash(&mut SplitMix64::new(seed));
            if storage.read(&p("/d/f")).ok().is_none_or(|c| c.is_empty()) {
                return;
            }
        }
        panic!("no seed in 0..64 emptied the unsynced file");
    }

    #[test]
    fn undurable_rename_rolls_back_stranding_the_tmp() {
        // atomic_write without the final sync_dir: write tmp, sync it,
        // rename — then crash with the rename still pending.
        for seed in 0..64 {
            let storage = SimStorage::new();
            storage
                .write(&p("/d/c.ckpt.tmp"), b"checkpoint-bytes")
                .unwrap();
            storage.sync(&p("/d/c.ckpt.tmp")).unwrap();
            storage
                .rename(&p("/d/c.ckpt.tmp"), &p("/d/c.ckpt"))
                .unwrap();
            storage.crash(&mut SplitMix64::new(seed));
            if storage.read(&p("/d/c.ckpt")).ok().is_none() {
                // Rolled back: the tmp must be intact (it was synced).
                assert_eq!(
                    storage.read(&p("/d/c.ckpt.tmp")).unwrap(),
                    b"checkpoint-bytes"
                );
                return;
            }
            // Survived: the final name holds the full content.
            assert_eq!(storage.read(&p("/d/c.ckpt")).unwrap(), b"checkpoint-bytes");
        }
        panic!("no seed in 0..64 rolled the rename back");
    }

    #[test]
    fn dir_sync_settles_renames() {
        let storage = SimStorage::new();
        storage.write(&p("/d/c.ckpt.tmp"), b"x").unwrap();
        storage.sync(&p("/d/c.ckpt.tmp")).unwrap();
        storage
            .rename(&p("/d/c.ckpt.tmp"), &p("/d/c.ckpt"))
            .unwrap();
        storage.sync_dir(&p("/d")).unwrap();
        for seed in 0..32 {
            // No pending ops: every crash preserves the rename.
            storage.crash(&mut SplitMix64::new(seed));
            assert_eq!(storage.read(&p("/d/c.ckpt")).unwrap(), b"x");
            assert!(storage.read(&p("/d/c.ckpt.tmp")).ok().is_none());
        }
    }

    #[test]
    fn list_is_sorted_and_scoped_to_the_dir() {
        let storage = SimStorage::new();
        storage.write(&p("/d/b"), b"").unwrap();
        storage.write(&p("/d/a"), b"").unwrap();
        storage.write(&p("/other/c"), b"").unwrap();
        assert_eq!(storage.list(&p("/d")).unwrap(), vec!["a", "b"]);
        assert_eq!(storage.list(&p("/nope")).unwrap(), Vec::<String>::new());
    }
}
