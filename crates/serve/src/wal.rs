//! The write-ahead log: length+CRC32-framed records, written in place
//! into preallocated space, with a configurable sync.
//!
//! Every mutation the monitors accept (`INGEST`, `FLUSH`) is appended
//! here *before* it is applied and acknowledged, so an acked request
//! survives a crash (to the extent the [`SyncPolicy`] promises — see
//! DESIGN §10 for the exact contract per policy).
//!
//! ## On-disk format
//!
//! A log file is a sequence of frames followed by zeros — no file
//! header, so an empty file is a valid (empty) log and truncation to any
//! frame boundary yields a valid log:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────────────────┐
//! │ len: u32 LE│ crc: u32 LE│ payload: len bytes           │
//! └────────────┴────────────┴──────────────────────────────┘
//! payload = seq: u64 LE ++ op: UTF-8 bytes (a protocol line,
//!           e.g. "INGEST 7 2012-05-02 1 2")
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. Sequence numbers (LSNs)
//! start at 1, increase by 1 per record, and stay monotonic across
//! checkpoint truncations — replay skips records at or below the
//! checkpoint LSN, which makes a crash *between* checkpoint rename and
//! log truncation harmless (idempotent replay).
//!
//! ## In-place group commits
//!
//! An append only encodes its frame into a group buffer; [`Wal::commit`]
//! writes the whole group with **one** write over a zero-filled,
//! allocated extent of [`EXTENT`] bytes kept ahead of the log's logical
//! end, then applies the sync policy. The fsync that commits a group
//! flushes data only: the file's size — and with it the filesystem
//! journal — changes once per extent, not once per record. The group
//! that crosses the end of the extent carries the next one in the same
//! write. A failed or torn write kills the log, as a failed fsync does;
//! recovery keeps the whole frames of it that landed and cuts the rest.
//! A checkpoint truncates the file to nothing; the next group zero-fills
//! a fresh extent.
//!
//! ## Where a log ends
//!
//! The log ends at the first offset that does not start a valid frame
//! (short header, impossible length, CRC mismatch, or a payload that is
//! not UTF-8). If every byte from there to the end of the file is zero,
//! that is a clean end: the unused extent. Anything else is a torn tail
//! — the write a crash interrupted — which [`read_records`] reports and
//! [`truncate_to_valid`] cuts off. Anything after the first invalid
//! frame is unreachable by construction — frames carry no resync marker
//! — which is exactly the prefix-durability a WAL promises.
//!
//! A reopened log resumes at the end of its last valid frame, never at
//! the file's length. Appends write only there, a checkpoint truncates
//! the file and recovery cuts a torn tail, so the bytes past the logical
//! end are always zeros: no stale frame can be read as a record.

use crate::env::{RealStorage, SplitMix64, Storage};
use crate::faults::{injected_error, FaultPlan};
use attrition_obs::{Counter, Gauge, Histogram};
use attrition_util::crc::crc32;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// File name of the log inside a WAL directory.
pub const WAL_FILE: &str = "wal.log";

/// Zero-filled bytes the log keeps written ahead of its logical end.
/// Fixed: the commit that carries a fresh extent pays for writing it
/// (about 0.3 ms at 64 KiB on ext4, 2 ms at 1 MiB), and one extent is
/// all a log ever holds past its end.
pub const EXTENT: u64 = 64 * 1024;

/// Frame header size: `len: u32` + `crc: u32`.
const HEADER: usize = 8;
/// Payload prefix: the record's sequence number.
const SEQ_BYTES: usize = 8;

/// Bucket upper bounds (µs) of `serve.wal.sync_us`. An fdatasync that
/// flushes data only takes tens of µs, one that also journals a size
/// change or a fresh extent hundreds — below the standard ladder's
/// first bucket of 0.1 ms.
const SYNC_US_BUCKETS: [f64; 14] = [
    10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 150.0, 250.0, 500.0, 1_000.0, 2_500.0, 10_000.0, 50_000.0,
    250_000.0,
];

/// When appended records are `fsync`ed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync; the OS flushes on its own schedule. An ack survives
    /// a process crash but not an OS/power crash.
    Never,
    /// Fsync once every `n` appends (and at every checkpoint). At most
    /// `n − 1` acked records are exposed to an OS crash.
    Interval(u64),
    /// Fsync every append before acking. An acked record survives an
    /// OS crash; slowest policy.
    Always,
}

impl SyncPolicy {
    /// Parse `never`, `always`, or `interval:N` (N ≥ 1).
    pub fn parse(text: &str) -> Result<SyncPolicy, String> {
        match text {
            "never" => Ok(SyncPolicy::Never),
            "always" => Ok(SyncPolicy::Always),
            other => match other.strip_prefix("interval:").map(str::parse) {
                Some(Ok(n)) if n >= 1 => Ok(SyncPolicy::Interval(n)),
                _ => Err(format!(
                    "bad sync policy {text:?} (expected never, always, or interval:N with N ≥ 1)"
                )),
            },
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Never => write!(f, "never"),
            SyncPolicy::Interval(n) => write!(f, "interval:{n}"),
            SyncPolicy::Always => write!(f, "always"),
        }
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number (LSN), 1-based, monotonic.
    pub seq: u64,
    /// The operation, as a protocol request line.
    pub op: String,
}

/// Encode one frame (header + payload) onto the end of a reusable
/// buffer — the WAL's group encoder, so appending allocates no frame
/// per record.
pub fn encode_record_into(buf: &mut Vec<u8>, seq: u64, op: &str) {
    let start = buf.len();
    let payload_len = SEQ_BYTES + op.len();
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // crc patched below
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(op.as_bytes());
    let crc = crc32(&buf[start + HEADER..]);
    buf[start + 4..start + HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// The valid frames of a log image, walked in place: each item is a
/// record's `(seq, op)` with the op borrowed from the image, so a replay
/// allocates nothing per record. Once the walk is over,
/// [`end`](Frames::end) and [`torn_bytes`](Frames::torn_bytes) say where
/// and how the log ended.
#[derive(Debug)]
pub struct Frames<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Frames<'a> {
    /// A walk from the start of `bytes` (a whole log file).
    pub fn new(bytes: &'a [u8]) -> Frames<'a> {
        Frames { bytes, offset: 0 }
    }

    /// The end of the last frame yielded so far; after the walk, the
    /// log's logical end — where its next frame is written.
    pub fn end(&self) -> u64 {
        self.offset as u64
    }

    /// Bytes past [`end`](Frames::end) that are not a clean end: 0 when
    /// the rest of the image is zeros (the unused extent, or nothing),
    /// otherwise everything from `end` to the end of the image — what
    /// recovery cuts off.
    pub fn torn_bytes(&self) -> u64 {
        let rest = &self.bytes[self.offset..];
        if rest.iter().all(|&b| b == 0) {
            0
        } else {
            rest.len() as u64
        }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (u64, &'a str);

    fn next(&mut self) -> Option<(u64, &'a str)> {
        let header = self.bytes.get(self.offset..self.offset + HEADER)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte field")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4-byte field"));
        if len < SEQ_BYTES {
            return None; // impossible length (a zero header among them)
        }
        let start = self.offset + HEADER;
        let payload = self.bytes.get(start..start.checked_add(len)?)?; // incomplete: torn
        if crc32(payload) != crc {
            return None; // corrupt (bit flip or torn mid-frame)
        }
        let seq = u64::from_le_bytes(payload[..SEQ_BYTES].try_into().expect("8-byte field"));
        // CRC-valid but not UTF-8: treat as torn.
        let op = std::str::from_utf8(&payload[SEQ_BYTES..]).ok()?;
        self.offset = start + len;
        Some((seq, op))
    }
}

/// Everything [`read_records`] learned about a log file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// The decodable record prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Bytes of valid frames: the log's logical end, where a torn tail
    /// (or the zero extent) starts.
    pub valid_len: u64,
    /// Bytes past the valid frames that are not a clean, zero-filled
    /// end (0 for a clean log).
    pub torn_bytes: u64,
}

/// Decode every valid frame from the start of `path`; a missing file
/// reads as an empty log. Stops where the log ends (see the module
/// docs) and reports any non-zero remainder as torn.
pub fn read_records(path: &Path) -> std::io::Result<WalScan> {
    let bytes = read_log(RealStorage::shared().as_ref(), path)?;
    let mut frames = Frames::new(&bytes);
    let records = frames
        .by_ref()
        .map(|(seq, op)| WalRecord {
            seq,
            op: op.to_owned(),
        })
        .collect();
    Ok(WalScan {
        records,
        valid_len: frames.end(),
        torn_bytes: frames.torn_bytes(),
    })
}

/// The whole log image, for a [`Frames`] walk; a missing file reads as
/// an empty log.
pub fn read_log(storage: &dyn Storage, path: &Path) -> std::io::Result<Vec<u8>> {
    match storage.read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Find a log's logical end by reading it — what a plain
/// [`Wal::open`] does, where recovery would hand the end over instead.
/// A torn tail is cut off, as recovery cuts it, so the bytes past the
/// end are zeros before anything is written there.
pub fn scan_end(storage: &dyn Storage, path: &Path) -> std::io::Result<u64> {
    let bytes = read_log(storage, path)?;
    let mut frames = Frames::new(&bytes);
    frames.by_ref().for_each(drop);
    if frames.torn_bytes() > 0 {
        truncate_to_valid_in(storage, path, frames.end())?;
    }
    Ok(frames.end())
}

/// Truncate `path` to its valid prefix, discarding a torn tail.
pub fn truncate_to_valid(path: &Path, valid_len: u64) -> std::io::Result<()> {
    truncate_to_valid_in(RealStorage::shared().as_ref(), path, valid_len)
}

/// [`truncate_to_valid`] against any [`Storage`].
pub fn truncate_to_valid_in(
    storage: &dyn Storage,
    path: &Path,
    valid_len: u64,
) -> std::io::Result<()> {
    storage.set_len(path, valid_len)?;
    storage.sync(path)
}

/// Where a reopened log continues: the sequence number its next record
/// gets, and the byte offset that record is written at — the end of the
/// last valid frame, never the file's length (which counts the zero
/// extent). Recovery learns both while it replays
/// ([`RecoveryStats::log_end`](crate::recovery::RecoveryStats::log_end)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEnd {
    /// The LSN the next record gets.
    pub next_seq: u64,
    /// The byte offset the next frame is written at.
    pub offset: u64,
}

impl LogEnd {
    /// The end of a log that holds nothing and never did.
    pub const EMPTY: LogEnd = LogEnd {
        next_seq: 1,
        offset: 0,
    };
}

/// The WAL's metric handles, looked up once when the log opens so the
/// append, commit and sync paths never look a metric up by name.
#[derive(Debug)]
struct WalMetrics {
    appends: Arc<Counter>,
    writes: Arc<Counter>,
    fsyncs: Arc<Counter>,
    group_commits: Arc<Counter>,
    extends: Arc<Counter>,
    errors: Arc<Counter>,
    poisoned: Arc<Gauge>,
    sync_us: Arc<Histogram>,
}

impl WalMetrics {
    fn lookup() -> WalMetrics {
        let registry = attrition_obs::global();
        WalMetrics {
            appends: registry.counter("serve.wal.appends"),
            writes: registry.counter("serve.wal.writes"),
            fsyncs: registry.counter("serve.wal.fsyncs"),
            group_commits: registry.counter("serve.wal.group_commits"),
            extends: registry.counter("serve.wal.extends"),
            errors: registry.counter("serve.wal.errors"),
            poisoned: registry.gauge("serve.wal.poisoned"),
            sync_us: registry.histogram_with("serve.wal.sync_us", &SYNC_US_BUCKETS),
        }
    }
}

/// The append handle the server writes through.
pub struct Wal {
    storage: Arc<dyn Storage>,
    path: PathBuf,
    policy: SyncPolicy,
    next_seq: u64,
    /// The end of the frames written to the file: where the pending
    /// group is written.
    len: u64,
    /// The file's length once the pending group is written.
    alloc: u64,
    /// The pending group's write carries a fresh extent up to `alloc`.
    extends: bool,
    appends: u64,
    fsyncs: u64,
    unsynced: u64,
    faults: FaultPlan,
    fault_rng: SplitMix64,
    /// Why the log died, once it has (see [`crashed`](Wal::crashed)):
    /// every later append, sync and truncation fails naming it.
    dead: Option<String>,
    /// The frames appended since the last write (see
    /// [`encode_record_into`]); also a fresh extent's zeros at the write.
    group: Vec<u8>,
    metrics: WalMetrics,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("next_seq", &self.next_seq)
            .field("len", &self.len)
            .field("alloc", &self.alloc)
            .field("dead", &self.dead)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Open (creating if missing) the log at `path` for appending.
    /// `next_seq` is the LSN the next record gets — after recovery,
    /// one past the highest sequence number seen. The log's end is found
    /// by scanning the file ([`scan_end`]).
    pub fn open(path: &Path, policy: SyncPolicy, next_seq: u64) -> std::io::Result<Wal> {
        Wal::open_with_faults(path, policy, next_seq, FaultPlan::none())
    }

    /// [`open`](Wal::open) with a fault-injection schedule (tests).
    pub fn open_with_faults(
        path: &Path,
        policy: SyncPolicy,
        next_seq: u64,
        faults: FaultPlan,
    ) -> std::io::Result<Wal> {
        let storage = RealStorage::shared();
        let offset = scan_end(&*storage, path)?;
        Wal::open_at(storage, path, policy, LogEnd { next_seq, offset }, faults)
    }

    /// Open the log at a known `end` against any [`Storage`] — the
    /// constructor the engine uses, with the end recovery handed over
    /// (or [`LogEnd::EMPTY`] for a fresh log), so the log is never read
    /// a second time. Every byte of the file past `end.offset` must be
    /// zero, as recovery and [`scan_end`] leave it.
    pub fn open_at(
        storage: Arc<dyn Storage>,
        path: &Path,
        policy: SyncPolicy,
        end: LogEnd,
        faults: FaultPlan,
    ) -> std::io::Result<Wal> {
        assert!(end.next_seq >= 1, "sequence numbers are 1-based");
        // Creates an empty log; writes go to the file now at `path`.
        let alloc = storage.open(path)?;
        if end.offset > alloc {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "log end {} is past the end of {} ({alloc} bytes)",
                    end.offset,
                    path.display()
                ),
            ));
        }
        // Decorrelate the stochastic fault stream by where the log
        // resumes (a restart at the same LSN redraws the same faults).
        let fault_rng = SplitMix64::new(faults.seed ^ end.next_seq.wrapping_mul(0x9E37_79B9));
        let metrics = WalMetrics::lookup();
        metrics.poisoned.set(0);
        Ok(Wal {
            storage,
            path: path.to_owned(),
            policy,
            next_seq: end.next_seq,
            len: end.offset,
            alloc,
            extends: false,
            appends: 0,
            fsyncs: 0,
            unsynced: 0,
            faults,
            fault_rng,
            dead: None,
            group: Vec::new(),
            metrics,
        })
    }

    /// Append one operation and commit it — a group of one; returns its
    /// sequence number. The record is on disk (per the sync policy) when
    /// this returns — the caller may ack. An error means nothing was
    /// acked and the log is dead.
    pub fn append(&mut self, op: &str) -> std::io::Result<u64> {
        let seq = self.append_deferred(op)?;
        self.commit()?;
        Ok(seq)
    }

    /// [`append`](Wal::append) without the commit — one member of a
    /// group, only encoded into the pending group: it reaches the file
    /// with the group's [`commit`](Wal::commit), and the caller must not
    /// ack it before that returns `Ok`. Fails only when the log is dead.
    pub fn append_deferred(&mut self, op: &str) -> std::io::Result<u64> {
        self.alive().inspect_err(|_| self.metrics.errors.inc())?;
        let seq = self.next_seq;
        encode_record_into(&mut self.group, seq, op);
        let end = self.len + self.group.len() as u64;
        if end > self.alloc {
            // The extent ends where this frame's own write ended it.
            self.alloc = end + EXTENT;
            self.extends = true;
        }
        self.next_seq += 1;
        self.appends += 1;
        self.unsynced += 1;
        self.metrics.appends.inc();
        Ok(seq)
    }

    /// Finish a group of [`append_deferred`](Wal::append_deferred)s:
    /// write the whole group with **one** write, then apply the sync
    /// policy **once** across it. Under `always` this is the single
    /// group-commit fsync a batch pays instead of one per record; under
    /// `interval:n` it syncs only when `n` or more records are pending,
    /// so the at-most-`n−1`-unsynced ack contract holds at every batch
    /// boundary (no acks are written mid-group); under `never` the write
    /// alone. An error means none of the group's records may be acked
    /// and the log is dead; recovery decides which of them survived.
    ///
    /// A scheduled `crash_after_appends` fault fires here, after the
    /// group's sync: the group that reached the count is acked, then the
    /// log freezes.
    pub fn commit(&mut self) -> std::io::Result<()> {
        self.commit_group()
            .inspect_err(|_| self.metrics.errors.inc())?;
        if self
            .faults
            .crash_after_appends
            .is_some_and(|n| self.appends >= n)
        {
            self.crash(injected_error("crash after the scheduled append"));
        }
        Ok(())
    }

    fn commit_group(&mut self) -> std::io::Result<()> {
        self.write_group()?;
        if self.unsynced > 0 && self.faults.crash_mid_commit(&mut self.fault_rng) {
            // Process death between the group's write and its fsync —
            // exactly the window where acked-nothing but written-all.
            return Err(self.crash(injected_error("crash mid-commit")));
        }
        let due = match self.policy {
            SyncPolicy::Never => false,
            SyncPolicy::Always => self.unsynced > 0,
            SyncPolicy::Interval(n) => self.unsynced >= n,
        };
        if due {
            self.sync()?;
            self.metrics.group_commits.inc();
        }
        Ok(())
    }

    /// Write the pending group at the log's end in one call (no-op when
    /// none is pending). A failed or torn write kills the log: its
    /// members are applied already, and only a restart reconciles.
    fn write_group(&mut self) -> std::io::Result<()> {
        self.alive()?;
        if self.group.is_empty() {
            return Ok(());
        }
        let frames = self.group.len();
        if self.extends {
            self.group.resize((self.alloc - self.len) as usize, 0);
        }
        let written = if self.faults.torn_append(&mut self.fault_rng) {
            // A prefix of the frames lands, then the write "fails" — what
            // a full disk or a yanked cable leaves behind.
            let cut = 1 + self.fault_rng.below(frames as u64 - 1) as usize;
            let _ = self
                .storage
                .write_at(&self.path, self.len, &self.group[..cut]);
            Err(injected_error("torn write"))
        } else if self.faults.failed_append(&mut self.fault_rng)
            || self.faults.fail_append.is_some_and(|n| self.appends >= n)
        {
            Err(injected_error("scheduled write failure"))
        } else {
            self.storage.write_at(&self.path, self.len, &self.group)
        };
        written.map_err(|e| self.die("write failed", e))?;
        self.metrics.writes.inc();
        self.metrics.extends.add(u64::from(self.extends));
        self.len += frames as u64;
        self.extends = false;
        self.group.clear();
        Ok(())
    }

    /// Fsync the log, writing a pending group first (no-op when nothing
    /// is pending). Its duration is recorded in `serve.wal.sync_us`
    /// while metrics are enabled.
    ///
    /// A failed fsync is never retried: the kernel may already have
    /// dropped the dirty pages, so a later success proves nothing
    /// (Rebello et al., USENIX ATC 2020). The log dies instead.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.write_group()?;
        if self.unsynced == 0 {
            return Ok(());
        }
        let started = attrition_obs::enabled().then(Instant::now);
        // The scheduled fault: the first sync while that record is pending.
        let synced = if self
            .faults
            .fail_sync_seq
            .is_some_and(|seq| self.synced_seq() < seq && seq < self.next_seq)
        {
            Err(injected_error("scheduled sync failure"))
        } else {
            self.storage.sync(&self.path)
        };
        synced.map_err(|e| self.die("fsync failed", e))?;
        if let Some(started) = started {
            self.metrics
                .sync_us
                .observe(started.elapsed().as_secs_f64() * 1e6);
        }
        self.unsynced = 0;
        self.fsyncs += 1;
        self.metrics.fsyncs.inc();
        Ok(())
    }

    /// Drop every record (after a checkpoint synced them and made them
    /// redundant). The sequence counter keeps running — LSNs never
    /// restart — and the next group zero-fills a fresh extent. A
    /// failure leaves the log dead: where its zeros start is unknown.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.alive()?;
        debug_assert!(self.group.is_empty(), "truncating under a pending group");
        self.storage
            .set_len(&self.path, 0)
            .map_err(|e| self.die("truncate failed", e))?;
        self.len = 0;
        self.alloc = 0;
        self.storage
            .sync(&self.path)
            .map_err(|e| self.die("fsync failed", e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// The last sequence number appended (0 before the first append).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Where this log continues between commits: the next record's LSN
    /// and the offset its frame is written at.
    pub fn end(&self) -> LogEnd {
        LogEnd {
            next_seq: self.next_seq,
            offset: self.len,
        }
    }

    /// The highest sequence number known durable: every record at or
    /// below it is either fsynced in the file or folded into a
    /// checkpoint (truncation implies a prior sync). Records above it
    /// are exposed to an OS crash — exactly the window the
    /// [`SyncPolicy`] contract permits. The simulator asserts recovery
    /// never lands below this floor.
    pub fn synced_seq(&self) -> u64 {
        self.next_seq - 1 - self.unsynced
    }

    /// Successful appends through this handle.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsyncs issued by this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Whether the log is dead: a write, fsync or truncation failed, or
    /// an injected crash fired. Only a restart continues from it.
    pub fn crashed(&self) -> bool {
        self.dead.is_some()
    }

    /// `Ok` while the log serves; otherwise the error naming why it died.
    fn alive(&self) -> std::io::Result<()> {
        match &self.dead {
            None => Ok(()),
            Some(cause) => Err(std::io::Error::other(format!("wal is dead: {cause}"))),
        }
    }

    /// Die of `what` failing with `e` (keeping the first cause); `e`.
    fn die(&mut self, what: &str, e: std::io::Error) -> std::io::Error {
        if self.dead.is_none() {
            self.dead = Some(format!("{what}: {e}"));
            self.metrics.poisoned.set(1);
        }
        e
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Simulate process death from `e`: optionally tear the log's last
    /// frame, then refuse every further operation. Fault-injection only.
    fn crash(&mut self, e: std::io::Error) -> std::io::Error {
        if self.faults.torn_tail_bytes > 0 {
            let keep = self.len.saturating_sub(self.faults.torn_tail_bytes);
            let _ = self.storage.set_len(&self.path, keep);
        }
        self.die("process death", e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_util::check::forall;
    use attrition_util::Rng;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("attrition_wal_{tag}_{}", std::process::id()))
    }

    fn encode_record(seq: u64, op: &str) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_record_into(&mut frame, seq, op);
        frame
    }

    fn random_op(rng: &mut Rng) -> String {
        let customer = rng.u64_below(1000);
        let day = 1 + rng.u64_below(28);
        let n_items = rng.u64_below(6);
        let mut op = format!("INGEST {customer} 2012-05-{day:02}");
        for _ in 0..n_items {
            op.push_str(&format!(" {}", rng.u64_below(500)));
        }
        op
    }

    #[test]
    fn sync_policy_parses_and_displays() {
        assert_eq!(SyncPolicy::parse("never").unwrap(), SyncPolicy::Never);
        assert_eq!(SyncPolicy::parse("always").unwrap(), SyncPolicy::Always);
        assert_eq!(
            SyncPolicy::parse("interval:16").unwrap(),
            SyncPolicy::Interval(16)
        );
        for bad in ["", "sometimes", "interval:0", "interval:x", "interval:"] {
            assert!(SyncPolicy::parse(bad).is_err(), "accepted {bad:?}");
        }
        for policy in [
            SyncPolicy::Never,
            SyncPolicy::Always,
            SyncPolicy::Interval(7),
        ] {
            assert_eq!(SyncPolicy::parse(&policy.to_string()).unwrap(), policy);
        }
    }

    #[test]
    fn append_read_roundtrip() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let ops = [
            "INGEST 1 2012-05-02 1 2 3",
            "FLUSH 2012-06-01",
            "INGEST 2 2012-05-03",
        ];
        let mut wal = Wal::open(&path, SyncPolicy::Always, 1).unwrap();
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(wal.append(op).unwrap(), i as u64 + 1);
        }
        assert_eq!(wal.last_seq(), 3);
        assert_eq!(wal.fsyncs(), 3);
        drop(wal);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        let got: Vec<(u64, &str)> = scan
            .records
            .iter()
            .map(|r| (r.seq, r.op.as_str()))
            .collect();
        assert_eq!(got, vec![(1, ops[0]), (2, ops[1]), (3, ops[2])]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reads_as_empty_log() {
        let scan = read_records(Path::new("/nonexistent/attrition/wal.log")).unwrap();
        assert_eq!(
            scan,
            WalScan {
                records: vec![],
                valid_len: 0,
                torn_bytes: 0
            }
        );
    }

    #[test]
    fn interval_policy_batches_fsyncs() {
        let path = temp_path("interval");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Interval(4), 1).unwrap();
        for i in 0..10 {
            wal.append(&format!("INGEST {i} 2012-05-02")).unwrap();
        }
        assert_eq!(wal.fsyncs(), 2, "10 appends at interval:4 → 2 fsyncs");
        wal.sync().unwrap();
        assert_eq!(wal.fsyncs(), 3);
        wal.sync().unwrap();
        assert_eq!(wal.fsyncs(), 3, "nothing pending: sync is a no-op");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_syncs_once_under_always() {
        let path = temp_path("group_always");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Always, 1).unwrap();
        for i in 0..8 {
            wal.append_deferred(&format!("INGEST {i} 2012-05-02"))
                .unwrap();
        }
        assert_eq!(wal.fsyncs(), 0, "deferred appends never sync");
        assert_eq!(wal.synced_seq(), 0);
        wal.commit().unwrap();
        assert_eq!(wal.fsyncs(), 1, "one fsync for the whole group");
        assert_eq!(wal.synced_seq(), 8);
        wal.commit().unwrap();
        assert_eq!(wal.fsyncs(), 1, "an empty commit is a no-op");
        drop(wal);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_preserves_interval_contract() {
        // interval:4 with groups of 3: a commit syncs only when ≥ 4
        // records are pending, and since no acks happen mid-group, at
        // most n−1 = 3 acked records are ever exposed.
        let path = temp_path("group_interval");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Interval(4), 1).unwrap();
        let group = |wal: &mut Wal| {
            for _ in 0..3 {
                wal.append_deferred("INGEST 1 2012-05-02").unwrap();
            }
            wal.commit().unwrap();
        };
        group(&mut wal);
        assert_eq!(wal.fsyncs(), 0, "3 pending < interval 4: no sync yet");
        group(&mut wal);
        assert_eq!(wal.fsyncs(), 1, "6 pending ≥ 4: the commit synced");
        assert_eq!(wal.synced_seq(), 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_mid_commit_freezes_before_the_sync() {
        // A certain mid-commit crash: the group's records are written
        // (in the file) but the commit errors and the floor stays put.
        let plan = FaultPlan {
            crash_commit_per_mille: 1000,
            ..FaultPlan::default()
        };
        let path = temp_path("crash_commit");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open_with_faults(&path, SyncPolicy::Always, 1, plan).unwrap();
        for i in 0..4 {
            wal.append_deferred(&format!("INGEST {i} 2012-05-02"))
                .unwrap();
        }
        let err = wal.commit().unwrap_err();
        assert!(err.to_string().contains("mid-commit"), "{err}");
        assert!(wal.crashed());
        assert_eq!(wal.synced_seq(), 0, "nothing became durable");
        assert_eq!(wal.fsyncs(), 0);
        assert!(wal.append("INGEST 9 2012-05-02").is_err());
        drop(wal);
        // The records are still physically in the file (an OS crash may
        // or may not keep them — that part is the simulator's job).
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_keeps_sequence_monotonic() {
        let path = temp_path("truncate");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Never, 1).unwrap();
        wal.append("INGEST 1 2012-05-02").unwrap();
        wal.append("INGEST 2 2012-05-02").unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.append("INGEST 3 2012-05-02").unwrap(), 3);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_group_write_kills_the_log_and_writes_nothing() {
        let path = temp_path("failnth");
        let _ = std::fs::remove_file(&path);
        let mut wal =
            Wal::open_with_faults(&path, SyncPolicy::Never, 1, FaultPlan::fail_append(3)).unwrap();
        assert_eq!(wal.append("INGEST 1 2012-05-02").unwrap(), 1);
        // The group holding the third append fails whole.
        for i in 2..=4 {
            wal.append_deferred(&format!("INGEST {i} 2012-05-02"))
                .unwrap();
        }
        let err = wal.commit().unwrap_err();
        assert!(err.to_string().contains("scheduled write failure"), "{err}");
        assert!(wal.crashed());
        for err in [
            wal.append("INGEST 5 2012-05-02").unwrap_err(),
            wal.sync().unwrap_err(),
        ] {
            let text = err.to_string();
            assert!(text.starts_with("wal is dead: write failed: "), "{text}");
        }
        drop(wal);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_group_write_kills_the_log_and_recovery_cuts_it() {
        let path = temp_path("torn_group");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Always, 1).unwrap();
        wal.append("INGEST 1 2012-05-02 1").unwrap();
        let end = wal.end();
        drop(wal);
        let every_write_tears = FaultPlan {
            seed: 9,
            torn_append_per_mille: 1000,
            ..FaultPlan::none()
        };
        let mut wal =
            Wal::open_with_faults(&path, SyncPolicy::Always, 2, every_write_tears).unwrap();
        for i in 2..=4 {
            wal.append_deferred(&format!("INGEST {i} 2012-05-02 {i}"))
                .unwrap();
        }
        let err = wal.commit().unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert!(wal.crashed());
        assert_eq!(wal.synced_seq(), 1, "nothing of the group became durable");
        drop(wal);
        // A prefix of the group landed: whole frames in it read as
        // records, the rest is a torn tail that recovery cuts.
        let scan = read_records(&path).unwrap();
        assert!((1..4).contains(&scan.records.len()), "{scan:?}");
        assert!(scan.valid_len >= end.offset);
        truncate_to_valid(&path, scan.valid_len).unwrap();
        let next = scan.records.len() as u64 + 1;
        let mut wal = Wal::open(&path, SyncPolicy::Always, next).unwrap();
        assert_eq!(wal.append("INGEST 9 2012-05-03 9").unwrap(), next);
        drop(wal);
        let clean = read_records(&path).unwrap();
        assert_eq!(clean.records.len() as u64, next);
        assert_eq!(clean.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commits_write_the_bytes_single_appends_write() {
        // The same records, appended one commit each or in groups of
        // any size, leave byte-identical files: the frames, and the zero
        // extent ending where the crossing frame's own write ended it.
        forall(
            24,
            |rng| {
                let n = 1 + rng.u64_below(400);
                let ops: Vec<String> = (0..n)
                    .map(|_| format!("{}{}", random_op(rng), " 1234567".repeat(20)))
                    .collect();
                let groups: Vec<usize> = (0..n).map(|_| 1 + rng.u64_below(64) as usize).collect();
                (ops, groups)
            },
            |(ops, groups)| {
                let tag = crc32(ops.concat().as_bytes());
                let single = temp_path(&format!("single_{tag:x}"));
                let grouped = temp_path(&format!("grouped_{tag:x}"));
                for path in [&single, &grouped] {
                    let _ = std::fs::remove_file(path);
                }
                let mut wal = Wal::open(&single, SyncPolicy::Never, 1).unwrap();
                for op in ops {
                    wal.append(op).unwrap();
                }
                let mut wal = Wal::open(&grouped, SyncPolicy::Never, 1).unwrap();
                let mut rest = &ops[..];
                for &size in groups {
                    let (group, tail) = rest.split_at(size.min(rest.len()));
                    for op in group {
                        wal.append_deferred(op).unwrap();
                    }
                    wal.commit().unwrap();
                    rest = tail;
                }
                let (a, b) = (
                    std::fs::read(&single).unwrap(),
                    std::fs::read(&grouped).unwrap(),
                );
                for path in [&single, &grouped] {
                    let _ = std::fs::remove_file(path);
                }
                assert!(a == b, "{} bytes vs {} bytes", a.len(), b.len());
            },
        );
    }

    #[test]
    fn crash_fault_freezes_the_log_and_tears_the_tail() {
        let path = temp_path("crash");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open_with_faults(
            &path,
            SyncPolicy::Never,
            1,
            FaultPlan::crash_after_torn(3, 5),
        )
        .unwrap();
        for i in 1..=3u64 {
            wal.append(&format!("INGEST {i} 2012-05-02")).unwrap();
        }
        assert!(wal.crashed());
        assert!(wal.append("INGEST 9 2012-05-02").is_err());
        assert!(wal.sync().is_err());
        assert!(wal.truncate().is_err());
        drop(wal);
        // Record 3 lost its last 5 bytes: recovery sees 2 records + torn tail.
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.torn_bytes > 0);
        truncate_to_valid(&path, scan.valid_len).unwrap();
        let clean = read_records(&path).unwrap();
        assert_eq!(clean.records.len(), 2);
        assert_eq!(clean.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn zero_extent_is_a_clean_end() {
        let path = temp_path("extent_clean");
        let _ = std::fs::remove_file(&path);
        let extends = attrition_obs::counter("serve.wal.extends").get();
        let mut wal = Wal::open(&path, SyncPolicy::Always, 1).unwrap();
        for i in 0..5 {
            wal.append(&format!("INGEST {i} 2012-05-02 1 2")).unwrap();
        }
        let end = wal.end();
        drop(wal);
        assert_eq!(end.next_seq, 6);
        // One extent rode with the first frame; the rest overwrote it.
        let first_frame = encode_record(1, "INGEST 0 2012-05-02 1 2").len() as u64;
        assert_eq!(file_len(&path), first_frame + EXTENT);
        assert!(attrition_obs::counter("serve.wal.extends").get() > extends);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.valid_len, end.offset);
        assert_eq!(scan.torn_bytes, 0, "zeros past the last frame are not torn");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_frame_crossing_the_extent_carries_the_next_one() {
        let path = temp_path("extent_cross");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Never, 1).unwrap();
        let op = format!("INGEST 1 2012-05-02{}", " 12345".repeat(200));
        let frame = encode_record(1, &op).len() as u64;
        let per_extent = (frame + EXTENT) / frame;
        for _ in 0..per_extent {
            wal.append(&op).unwrap();
        }
        assert_eq!(
            file_len(&path),
            frame + EXTENT,
            "still inside the first extent"
        );
        wal.append(&op).unwrap();
        assert_eq!(
            file_len(&path),
            (per_extent + 1) * frame + EXTENT,
            "the crossing frame wrote a fresh extent past itself"
        );
        drop(wal);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len() as u64, per_extent + 1);
        assert_eq!(scan.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_frame_inside_the_extent_is_cut() {
        let path = temp_path("extent_torn");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Always, 1).unwrap();
        let mut ends = Vec::new();
        for i in 1..=3u64 {
            wal.append(&format!("INGEST {i} 2012-05-02 7")).unwrap();
            ends.push(wal.end().offset);
        }
        drop(wal);
        // The third frame's last byte never reached the disk.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[ends[2] as usize - 1] = 0;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len, ends[1]);
        assert_eq!(scan.torn_bytes, bytes.len() as u64 - ends[1]);
        // A frame that landed past a hole is torn too, not a record.
        let mut holed = std::fs::read(&path).unwrap();
        holed[ends[1] as usize..ends[2] as usize].fill(0);
        holed.extend_from_slice(&encode_record(4, "INGEST 4 2012-05-02"));
        std::fs::write(&path, &holed).unwrap();
        let scan = read_records(&path).unwrap();
        assert_eq!((scan.records.len(), scan.valid_len), (2, ends[1]));
        assert!(scan.torn_bytes > 0);
        // Cutting it leaves a log a reopened WAL continues cleanly.
        truncate_to_valid(&path, scan.valid_len).unwrap();
        assert_eq!(file_len(&path), ends[1]);
        let mut wal = Wal::open(&path, SyncPolicy::Always, 3).unwrap();
        assert_eq!(wal.append("INGEST 3 2012-05-03 8").unwrap(), 3);
        drop(wal);
        let clean = read_records(&path).unwrap();
        assert_eq!(
            clean.records.iter().map(|r| r.seq).collect::<Vec<u64>>(),
            [1, 2, 3]
        );
        assert_eq!(clean.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wal_reopens_at_the_last_frame_not_the_file_length() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Always, 1).unwrap();
        wal.append("INGEST 1 2012-05-02 1").unwrap();
        wal.append("INGEST 2 2012-05-02 2").unwrap();
        let end = wal.end();
        drop(wal);
        assert!(file_len(&path) > end.offset);
        // A plain open finds the end by scanning...
        let mut wal = Wal::open(&path, SyncPolicy::Always, end.next_seq).unwrap();
        assert_eq!(wal.end(), end);
        wal.append("INGEST 3 2012-05-02 3").unwrap();
        let end = wal.end();
        drop(wal);
        // ...and an open at a handed-over end trusts it.
        let mut wal = Wal::open_at(
            RealStorage::shared(),
            &path,
            SyncPolicy::Always,
            end,
            FaultPlan::none(),
        )
        .unwrap();
        wal.append("INGEST 4 2012-05-02 4").unwrap();
        drop(wal);
        let scan = read_records(&path).unwrap();
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<u64>>(),
            [1, 2, 3, 4],
            "every frame landed right after the previous one"
        );
        assert_eq!(scan.torn_bytes, 0);
        // An end past the file is refused rather than written behind.
        let past = LogEnd {
            next_seq: 5,
            offset: file_len(&path) + 1,
        };
        assert!(Wal::open_at(
            RealStorage::shared(),
            &path,
            SyncPolicy::Always,
            past,
            FaultPlan::none()
        )
        .is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_truncation_drops_the_extent_and_the_next_append_refills_it() {
        let path = temp_path("truncate_extent");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::Always, 1).unwrap();
        wal.append("INGEST 1 2012-05-02 1").unwrap();
        wal.truncate().unwrap();
        assert_eq!(file_len(&path), 0, "no retired frame survives the cut");
        wal.append("INGEST 2 2012-05-02 2").unwrap();
        let frame = encode_record(2, "INGEST 2 2012-05-02 2").len() as u64;
        assert_eq!(file_len(&path), frame + EXTENT);
        let scan = read_records(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scheduled_sync_failure_keeps_the_record_and_fires_once() {
        let path = temp_path("failsync");
        let _ = std::fs::remove_file(&path);
        let mut wal =
            Wal::open_with_faults(&path, SyncPolicy::Always, 1, FaultPlan::fail_sync_seq(2))
                .unwrap();
        assert_eq!(wal.append("INGEST 1 2012-05-02").unwrap(), 1);
        let err = wal.append("INGEST 2 2012-05-02").unwrap_err();
        assert!(err.to_string().contains("sync failure"), "{err}");
        // The record is in the file, never durable, and the log is dead:
        // a failed fsync is not retried.
        assert_eq!((wal.last_seq(), wal.synced_seq()), (2, 1));
        assert!(wal.crashed());
        // Every later call fails naming the first cause.
        for err in [
            wal.append("INGEST 3 2012-05-02").unwrap_err(),
            wal.sync().unwrap_err(),
            wal.truncate().unwrap_err(),
        ] {
            let text = err.to_string();
            assert!(text.starts_with("wal is dead: fsync failed: "), "{text}");
            assert!(text.contains("scheduled sync failure"), "{text}");
        }
        assert_eq!(wal.last_seq(), 2, "nothing was appended after the death");
        drop(wal);
        assert_eq!(read_records(&path).unwrap().records.len(), 2);
        // A WAL reopened past the sequence number never fires it.
        let mut wal =
            Wal::open_with_faults(&path, SyncPolicy::Always, 3, FaultPlan::fail_sync_seq(2))
                .unwrap();
        assert_eq!(wal.append("INGEST 3 2012-05-02").unwrap(), 3);
        assert_eq!(wal.synced_seq(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prop_encode_decode_roundtrips() {
        forall(
            128,
            |rng| {
                let n = 1 + rng.u64_below(8);
                (0..n)
                    .map(|i| (i + 1 + rng.u64_below(100), random_op(rng)))
                    .collect::<Vec<(u64, String)>>()
            },
            |records| {
                let mut bytes = Vec::new();
                for (seq, op) in records {
                    bytes.extend_from_slice(&encode_record(*seq, op));
                }
                let path = temp_path(&format!("prop_rt_{:x}", crc32(&bytes)));
                std::fs::write(&path, &bytes).unwrap();
                let scan = read_records(&path).unwrap();
                let _ = std::fs::remove_file(&path);
                assert_eq!(scan.torn_bytes, 0);
                let got: Vec<(u64, String)> =
                    scan.records.into_iter().map(|r| (r.seq, r.op)).collect();
                assert_eq!(&got, records);
            },
        );
    }

    #[test]
    fn prop_any_single_byte_corruption_or_truncation_is_detected() {
        forall(
            48,
            |rng| {
                let n = 1 + rng.u64_below(4);
                let ops: Vec<String> = (0..n).map(|_| random_op(rng)).collect();
                let mut bytes = Vec::new();
                for (i, op) in ops.iter().enumerate() {
                    bytes.extend_from_slice(&encode_record(i as u64 + 1, op));
                }
                let pos = rng.u64_below(bytes.len() as u64) as usize;
                let flip = 1u8 << rng.u64_below(8);
                let cut = rng.u64_below(bytes.len() as u64) as usize;
                (bytes, ops.len(), pos, flip, cut)
            },
            |(bytes, n_records, pos, flip, cut)| {
                let tag = format!("prop_corrupt_{:x}_{pos}_{flip}", crc32(bytes));
                let path = temp_path(&tag);

                // Single-byte corruption: fewer records decode, and the
                // record containing the flipped byte never decodes wrong
                // — it disappears along with everything after it.
                let mut corrupted = bytes.clone();
                corrupted[*pos] ^= flip;
                std::fs::write(&path, &corrupted).unwrap();
                let scan = read_records(&path).unwrap();
                assert!(
                    scan.records.len() < *n_records,
                    "corruption at byte {pos} went undetected"
                );
                assert!(scan.torn_bytes > 0);
                // Every record that did decode is bit-identical to an
                // original (the flip cannot invent a passing frame).
                let clean = {
                    std::fs::write(&path, bytes).unwrap();
                    read_records(&path).unwrap().records
                };
                assert_eq!(scan.records.as_slice(), &clean[..scan.records.len()]);

                // Truncation at any byte: a clean prefix decodes, the
                // remainder is reported torn, never misread.
                std::fs::write(&path, &bytes[..*cut]).unwrap();
                let truncated = read_records(&path).unwrap();
                assert_eq!(
                    truncated.records.as_slice(),
                    &clean[..truncated.records.len()]
                );
                assert_eq!(truncated.valid_len + truncated.torn_bytes, *cut as u64);
                let _ = std::fs::remove_file(&path);
            },
        );
    }

    #[test]
    fn prop_any_single_byte_corruption_or_truncation_of_a_preallocated_log_is_detected() {
        forall(
            48,
            |rng| {
                let n = 1 + rng.u64_below(4);
                let mut bytes = Vec::new();
                let mut ends = Vec::new();
                for i in 0..n {
                    bytes.extend_from_slice(&encode_record(i + 1, &random_op(rng)));
                    ends.push(bytes.len());
                }
                // The zero extent past the last frame.
                bytes.resize(bytes.len() + 1 + rng.u64_below(96) as usize, 0);
                let pos = rng.u64_below(bytes.len() as u64) as usize;
                let flip = 1u8 << rng.u64_below(8);
                let cut = rng.u64_below(bytes.len() as u64 + 1) as usize;
                (bytes, ends, pos, flip, cut)
            },
            |(bytes, ends, pos, flip, cut)| {
                let scan_of = |image: &[u8]| {
                    let mut frames = Frames::new(image);
                    let seqs: Vec<u64> = frames.by_ref().map(|(seq, _)| seq).collect();
                    (seqs, frames.end(), frames.torn_bytes())
                };
                let (clean, clean_end, clean_torn) = scan_of(bytes);
                assert_eq!(clean.len(), ends.len());
                assert_eq!(clean_end, *ends.last().unwrap() as u64);
                assert_eq!(clean_torn, 0, "the zero extent is a clean end");

                // Single-byte corruption, frame or extent: fewer records
                // decode, or the remainder is reported torn — and what
                // decodes is an untouched prefix.
                let mut corrupted = bytes.clone();
                corrupted[*pos] ^= flip;
                let (seqs, end, torn) = scan_of(&corrupted);
                assert!(
                    seqs.len() < ends.len() || torn > 0,
                    "corruption at byte {pos} went undetected"
                );
                assert_eq!(seqs.as_slice(), &clean[..seqs.len()]);
                assert!(end <= *pos as u64 || seqs.len() == ends.len());

                // Truncation at any byte: exactly the frames that end
                // inside the cut decode; a cut inside a frame is torn.
                let (seqs, end, torn) = scan_of(&bytes[..*cut]);
                let whole = ends.iter().filter(|&&e| e <= *cut).count();
                assert_eq!(seqs.len(), whole);
                assert_eq!(
                    end,
                    if whole == 0 {
                        0
                    } else {
                        ends[whole - 1] as u64
                    }
                );
                if (end as usize) < *cut && *cut <= *ends.last().unwrap() {
                    assert_eq!(end + torn, *cut as u64, "cut at {cut} inside a frame");
                } else {
                    assert_eq!(torn, 0, "cut at {cut} leaves only zeros");
                }
            },
        );
    }
}
