//! The environment seams: `Clock`, `RngCore`, and `Storage`.
//!
//! Everything in the serving + durability stack that talks to the
//! outside world — wall-clock time, randomness, and the filesystem —
//! goes through one of these three traits instead of calling
//! `std::time`/`std::fs` directly. Production wires in the thin real
//! implementations below ([`RealClock`], [`SplitMix64`],
//! [`RealStorage`]); the deterministic simulator (`attrition-sim`)
//! wires in in-memory implementations driven by a seeded logical clock
//! and event queue, so the *same* engine/WAL/checkpoint/recovery code
//! runs under thousands of reproducible fault interleavings (DESIGN
//! §11).
//!
//! The traits are object-safe on purpose: the stack passes
//! `Arc<dyn Storage>`/`Arc<dyn Clock>` around rather than infecting
//! every type with generics, and the indirection costs one vtable call
//! per I/O operation — noise next to the syscall (or, in the simulator,
//! next to the frame CRC).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Monotonic time. Real servers measure durations with [`Instant`];
/// the simulator advances a logical clock between events, so a "30 s"
/// checkpoint interval elapses deterministically.
pub trait Clock: Send + Sync {
    /// Monotonic time since an arbitrary fixed epoch (process start for
    /// the real clock, simulation start for the logical one).
    fn now(&self) -> Duration;

    /// Block for `duration` (real) or advance the logical clock by it
    /// (sim). Used by client backoff, never by the server hot path.
    fn sleep(&self, duration: Duration);
}

/// [`Clock`] over [`Instant`], anchored at first use.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealClock;

static REAL_EPOCH: OnceLock<Instant> = OnceLock::new();

impl Clock for RealClock {
    fn now(&self) -> Duration {
        REAL_EPOCH.get_or_init(Instant::now).elapsed()
    }

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// A deterministic `u64` stream. The serve stack never needs
/// cryptographic randomness — only decorrelation (retry jitter, fault
/// schedules) — so the contract is just "uniform-ish and replayable
/// from a seed".
pub trait RngCore: Send {
    /// The next value of the stream.
    fn next_u64(&mut self) -> u64;
}

/// splitmix64 (public domain): the minimal statistically-decent PRNG,
/// and the one canonical `RngCore` both production (client jitter) and
/// the simulator use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// A stream seeded at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A value below `bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }

    /// Bernoulli draw at `per_mille`/1000 (values ≥ 1000 always hit).
    pub fn per_mille(&mut self, per_mille: u32) -> bool {
        (self.next_u64() % 1000) < per_mille as u64
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The filesystem operations the WAL, checkpoints and recovery need —
/// expressed by path so the trait stays object-safe. The semantics
/// mirror POSIX closely enough that the simulator can model the crash
/// behaviors that matter: unsynced bytes may be lost or torn, and
/// renames/creates are only durable after [`sync_dir`](Storage::sync_dir).
pub trait Storage: Send + Sync {
    /// Read the whole file. A missing file is `ErrorKind::NotFound`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Create-or-truncate `path` and write `bytes` (not atomic — pair
    /// with [`rename`](Storage::rename) for atomic replacement).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Write `bytes` at byte `offset` of `path`, creating the file if
    /// missing and extending it (zero-filling any gap) when the write
    /// ends past its current length. Bytes outside the range are left
    /// as they are. May write a prefix and then fail (a torn write) —
    /// callers must tolerate it (the WAL dies and recovery cuts it).
    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()>;

    /// Create `path` if missing and return its length; later writes and
    /// syncs reach the file at `path` now, not one removed or replaced.
    fn open(&self, path: &Path) -> io::Result<u64> {
        self.write_at(path, 0, b"")?;
        self.len(path)
    }

    /// Make `path`'s current content durable (`fsync`).
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// Truncate (or extend with zeros) `path` to `len` bytes.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<u64>;

    /// Current length of `path` in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;

    /// Atomically move `from` over `to` (replacing it). Durable only
    /// after the containing directory is synced.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file. Durable only after the directory is synced.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Make the directory's entries (renames/creates/removes) durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// File names (not full paths) inside `dir`. A missing directory
    /// lists as empty. Order is unspecified; callers sort.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Create `dir` and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// [`Storage`] over `std::fs`. Write handles are cached per path so a
/// hot WAL does not reopen its log on every record. The handles are
/// opened *without* `O_APPEND`: Linux `pwrite` on an append-mode
/// descriptor ignores the offset, and every write here is positioned,
/// so truncation never stales a handle. [`open`](Storage::open),
/// [`write`](Storage::write), [`rename`](Storage::rename) and
/// [`remove`](Storage::remove) drop one: the file under the path may
/// have been or may be swapped.
#[derive(Debug, Default)]
pub struct RealStorage {
    handles: Mutex<std::collections::HashMap<PathBuf, std::fs::File>>,
}

impl RealStorage {
    /// A fresh handle cache over the real filesystem.
    pub fn new() -> RealStorage {
        RealStorage::default()
    }

    /// The shared process-wide instance (what the path-based
    /// convenience constructors use).
    pub fn shared() -> std::sync::Arc<RealStorage> {
        static SHARED: OnceLock<std::sync::Arc<RealStorage>> = OnceLock::new();
        SHARED
            .get_or_init(|| std::sync::Arc::new(RealStorage::new()))
            .clone()
    }

    fn with_handle<R>(
        &self,
        path: &Path,
        op: impl FnOnce(&std::fs::File) -> io::Result<R>,
    ) -> io::Result<R> {
        let mut cache = self
            .handles
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if !cache.contains_key(path) {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(false)
                .open(path)?;
            cache.insert(path.to_owned(), file);
        }
        let result = op(cache.get(path).expect("just inserted"));
        if result.is_err() {
            // A failed handle is not trustworthy; reopen next time.
            cache.remove(path);
        }
        result
    }

    fn drop_handle(&self, path: &Path) {
        self.handles
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .remove(path);
    }
}

/// One positioned write of the whole buffer (`pwrite` on unix).
#[cfg(unix)]
fn write_all_at(file: &std::fs::File, offset: u64, bytes: &[u8]) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, bytes, offset)
}

/// One positioned write of the whole buffer (seek, then write).
#[cfg(not(unix))]
fn write_all_at(mut file: &std::fs::File, offset: u64, bytes: &[u8]) -> io::Result<()> {
    use std::io::{Seek as _, Write as _};
    file.seek(io::SeekFrom::Start(offset))?;
    file.write_all(bytes)
}

impl Storage for RealStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.drop_handle(path);
        std::fs::write(path, bytes)
    }

    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.with_handle(path, |file| write_all_at(file, offset, bytes))
    }

    fn open(&self, path: &Path) -> io::Result<u64> {
        self.drop_handle(path);
        self.with_handle(path, |file| Ok(file.metadata()?.len()))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.with_handle(path, |file| file.sync_data())
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<u64> {
        // Not via the cached handle: set_len is also used on files
        // nothing writes through it (torn-tail truncation at recovery).
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()?;
        Ok(len)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.drop_handle(from);
        self.drop_handle(to);
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.drop_handle(path);
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Not every platform can open a directory for syncing; degrade
        // to success there (the POSIX targets we care about can).
        match std::fs::File::open(dir) {
            Ok(file) => file.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut names = Vec::new();
        for entry in entries {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_owned());
            }
        }
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let clock = RealClock;
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs, (0..16).map(|_| c.next_u64()).collect::<Vec<u64>>());
        // per_mille extremes.
        let mut r = SplitMix64::new(7);
        assert!((0..100).all(|_| !r.per_mille(0)));
        assert!((0..100).all(|_| r.per_mille(1000)));
    }

    #[test]
    fn real_storage_roundtrips_and_lists() {
        let dir = std::env::temp_dir().join(format!("attrition_env_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = RealStorage::new();
        storage.create_dir_all(&dir).unwrap();
        let path = dir.join("a.log");
        storage.write_at(&path, 0, b"hello ").unwrap();
        storage.write_at(&path, 6, b"world").unwrap();
        storage.sync(&path).unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"hello world");
        assert_eq!(storage.len(&path).unwrap(), 11);
        // Positioned writes overwrite in place and never move the end
        // they do not reach.
        storage.write_at(&path, 0, b"J").unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"Jello world");
        storage.set_len(&path, 5).unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"Jello");
        // The cached handle survives truncation, and a write past the
        // end zero-fills the gap.
        storage.write_at(&path, 7, b"!").unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"Jello\0\0!");
        storage.write(&dir.join("b.tmp"), b"x").unwrap();
        storage
            .rename(&dir.join("b.tmp"), &dir.join("b.ckpt"))
            .unwrap();
        storage.sync_dir(&dir).unwrap();
        let mut names = storage.list(&dir).unwrap();
        names.sort();
        assert_eq!(names, vec!["a.log", "b.ckpt"]);
        storage.remove(&dir.join("b.ckpt")).unwrap();
        assert!(matches!(
            storage.read(&dir.join("b.ckpt")),
            Err(e) if e.kind() == io::ErrorKind::NotFound
        ));
        assert_eq!(
            storage.list(Path::new("/nonexistent/attrition")).unwrap(),
            Vec::<String>::new()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
