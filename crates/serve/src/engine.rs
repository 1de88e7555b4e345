//! The request-execution engine: everything the server *means*,
//! separated from how requests arrive.
//!
//! [`Engine`] owns the sharded monitor, the durability state (WAL +
//! checkpoint triggers) and the shutdown/request counters, and executes
//! one frame at a time through [`Service::execute`]: a single request
//! line is a frame of one, a `BATCH n` frame's members a frame of n, and
//! both take the same path — parse; check, log and apply each member;
//! one group commit; answer. The TCP layer ([`server`](crate::server))
//! wraps it in an accept loop and a worker pool; the deterministic simulator
//! (`attrition-sim`) calls that same method directly — same code, same
//! WAL, same checkpoints, no sockets or threads required.
//!
//! All environment access goes through the [`env`](crate::env) seams:
//! the engine is constructed over an `Arc<dyn Storage>` and an
//! `Arc<dyn Clock>`, so "30 seconds since the last checkpoint" and
//! "fsync the log" mean real time and a real fsync in production, and
//! logical time and an in-memory buffer under simulation.

use crate::checkpoint::{self, CheckpointFormat};
use crate::env::{Clock, RealClock, RealStorage, Storage};
use crate::faults::FaultPlan;
use crate::protocol::{
    format_closed_into, format_score_into, write_flush_line, write_ingest_line, BatchLines,
    ParseError, ParsedRequest, Request,
};
use crate::server::Service;
use crate::shard::{apply, OutOfOrder, ShardedMonitor};
use crate::wal::{self, LogEnd, SyncPolicy, Wal, WAL_FILE};
use attrition_core::{StabilityPoint, WindowClosed};
use attrition_types::{CustomerId, ItemId};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The prefix of every answer to a mutation that failed in the WAL
/// (`ERR wal append failed: …`, `ERR wal commit failed: …`). After a
/// failed commit the member was logged and applied, but never acked.
pub const WAL_FAILURE: &str = "ERR wal ";

/// Configuration of the durability subsystem (WAL + checkpoints).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `checkpoint-*.ckpt` (created if
    /// missing).
    pub wal_dir: PathBuf,
    /// When appended WAL records are fsynced (see [`SyncPolicy`] for
    /// the per-policy ack guarantee).
    pub sync_policy: SyncPolicy,
    /// Checkpoint after this many logged requests (0 disables the
    /// count trigger).
    pub checkpoint_every_requests: u64,
    /// Checkpoint when this much time passed since the last one and at
    /// least one request was logged (`None` disables the time trigger).
    pub checkpoint_every: Option<Duration>,
    /// Checkpoints retained after rotation (older ones are pruned; ≥ 1).
    pub keep_checkpoints: usize,
    /// Read by nothing: checkpoints have one encoding. The field stays
    /// so that code building this config as a struct literal (the
    /// benchmark's `perfbench/src/trace.rs` does) keeps compiling; see
    /// [`CheckpointFormat`].
    pub checkpoint_format: CheckpointFormat,
    /// Fault-injection schedule for the WAL (tests only; `None` in
    /// production).
    pub fault_plan: Option<FaultPlan>,
}

impl DurabilityConfig {
    /// Defaults: fsync every append, checkpoint every 1024 logged
    /// requests or 30 s (whichever comes first), keep 2 checkpoints.
    pub fn new(wal_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            wal_dir: wal_dir.into(),
            sync_policy: SyncPolicy::Always,
            checkpoint_every_requests: 1024,
            checkpoint_every: Some(Duration::from_secs(30)),
            keep_checkpoints: 2,
            checkpoint_format: CheckpointFormat::Binary,
            fault_plan: None,
        }
    }
}

/// The durability state behind one lock: holding it across a frame's
/// check, append *and* apply keeps log order identical to apply order
/// and makes every checkpoint an exact cut at `wal.last_seq()`.
struct Durable {
    wal: Wal,
    /// Reusable canonical op line for WAL appends.
    op_line: String,
    dir: PathBuf,
    storage: Arc<dyn Storage>,
    clock: Arc<dyn Clock>,
    checkpoint_every_requests: u64,
    checkpoint_every: Option<Duration>,
    keep_checkpoints: usize,
    since_checkpoint: u64,
    last_checkpoint: Duration,
    checkpoints_written: u64,
}

impl Durable {
    /// Append an accepted mutation's record (items in wire order), its LSN
    /// into `seq`, when durability is on; the frame's commit syncs it. A
    /// failure refuses it and, through `failed`, the frame's later ones.
    fn log(
        durable: Option<&mut Durable>,
        request: &ParsedRequest,
        items: &[ItemId],
        seq: &mut u64,
        failed: &mut Option<String>,
    ) -> Result<(), Answer> {
        let Some(d) = durable else { return Ok(()) };
        d.op_line.clear();
        match request {
            ParsedRequest::Ingest(customer, date, range) => {
                write_ingest_line(&mut d.op_line, *customer, *date, &items[range.clone()]);
            }
            ParsedRequest::Flush(date) => write_flush_line(&mut d.op_line, *date),
            other => panic!("{} is not a mutation", other.verb()),
        }
        *seq = d.wal.append_deferred(&d.op_line).map_err(|e| {
            Answer::Refused(failed.insert(format!("wal append failed: {e}")).clone())
        })?;
        Ok(())
    }

    /// Bookkeeping after a frame's `n` logged requests were committed:
    /// fire a periodic checkpoint when a trigger is due. Called only
    /// **after** the frame's members were applied — a cut taken earlier
    /// would cover records the monitor has not absorbed yet, and the
    /// truncation would lose them. Checkpoint failures degrade to a
    /// counter + log line — the WAL still holds everything, so serving
    /// beats dying; the next trigger retries.
    fn after_commit(&mut self, monitor: &ShardedMonitor, n: u64) {
        self.since_checkpoint += n;
        let due_count = self.checkpoint_every_requests > 0
            && self.since_checkpoint >= self.checkpoint_every_requests;
        let due_time = self
            .checkpoint_every
            .is_some_and(|every| self.clock.now().saturating_sub(self.last_checkpoint) >= every);
        if !(due_count || due_time) {
            return;
        }
        if let Err(e) = self.checkpoint_now(monitor) {
            attrition_obs::counter("serve.checkpoint.errors").inc();
            eprintln!("serve: periodic checkpoint failed (wal retained): {e}");
            // Reset the triggers so a persistent failure retries once
            // per period instead of once per request.
            self.since_checkpoint = 0;
            self.last_checkpoint = self.clock.now();
        }
    }

    /// Snapshot → atomic checkpoint write → prune → WAL truncation.
    fn checkpoint_now(&mut self, monitor: &ShardedMonitor) -> std::io::Result<()> {
        let started = self.clock.now();
        // Everything the checkpoint covers must be durable first, or a
        // crash right after truncation could lose acked-but-buffered
        // records under `interval`/`never` policies.
        self.wal.sync()?;
        let lsn = self.wal.last_seq();
        checkpoint::write_binary_in(&*self.storage, &self.dir, lsn, &monitor.snapshot_bytes())?;
        let _ = checkpoint::prune_in(&*self.storage, &self.dir, self.keep_checkpoints);
        self.wal.truncate()?;
        self.since_checkpoint = 0;
        self.last_checkpoint = self.clock.now();
        self.checkpoints_written += 1;
        attrition_obs::counter("serve.checkpoint.writes").inc();
        attrition_obs::observe_ms(
            "serve.checkpoint.duration_ms",
            self.clock.now().saturating_sub(started).as_secs_f64() * 1e3,
        );
        attrition_obs::gauge("serve.checkpoint.lsn").set(lsn as i64);
        Ok(())
    }
}

fn lock_durable(durable: &Mutex<Durable>) -> MutexGuard<'_, Durable> {
    durable.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// What [`Service::shutdown_flush`] reports back for the summary.
#[derive(Debug, Clone, Default)]
pub struct ShutdownReport {
    /// Why the shutdown checkpoint failed, if it did. A durable server
    /// exiting with this set must be treated as a crash: the WAL still
    /// holds the tail and recovery will replay it.
    pub checkpoint_error: Option<String>,
    /// Where the final legacy snapshot was written, if anywhere.
    pub snapshot_path: Option<PathBuf>,
    /// Why the final snapshot write failed, if it did.
    pub snapshot_error: Option<String>,
    /// WAL records appended over the engine's lifetime.
    pub wal_appends: u64,
    /// WAL fsyncs issued over the engine's lifetime.
    pub wal_fsyncs: u64,
    /// Checkpoints written (periodic + shutdown).
    pub checkpoints: u64,
}

/// What happened to one member of a frame — the attribution the
/// deterministic simulator and a replica need to follow a frame member
/// by member, and the verb the server times a single line under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemberOutcome {
    /// The member's verb as used in per-verb metric names (`parse` for
    /// a line that did not parse).
    pub verb: &'static str,
    /// The WAL sequence number the member's record got, 0 if none. A
    /// mutation is logged iff applied, and acked only if answered `OK`.
    pub seq: u64,
}

/// Reusable per-connection scratch for executing frames: the item arena
/// the members parse into, their parsed forms, per-member outcomes, the
/// sorted-items buffer an apply canonicalizes into instead of building
/// a `Basket` per receipt, and the per-member answers the render phase
/// formats. After a few warmup frames every buffer has reached its
/// steady-state capacity and executing an `INGEST`-only frame allocates
/// nothing.
#[derive(Default)]
pub struct BatchScratch {
    /// Shared item arena; `ParsedRequest::Ingest` ranges index into it.
    items: Vec<ItemId>,
    /// Parse result per member (`Err` carries the `ERR` message).
    parsed: Vec<Result<ParsedRequest, String>>,
    /// Outcome per member of the current top-level frame.
    pub(crate) outcomes: Vec<MemberOutcome>,
    /// Whether the current top-level frame is a `BATCH` frame.
    pub(crate) batched: bool,
    /// Reusable sorted+deduplicated items for one apply.
    apply_items: Vec<ItemId>,
    /// What each member's apply produced, rendered after the lock.
    answers: Vec<Answer>,
}

/// What running one frame member produced: captured under the
/// durability lock, rendered into the reply once it is released.
enum Answer {
    /// `ERR <message>`: the member did not parse, the monitor refused
    /// it, or its WAL append or commit failed.
    Refused(String),
    Pong,
    /// `OK <n>` and the windows an `INGEST` or `FLUSH` closed.
    Closed(Vec<WindowClosed>),
    Score(CustomerId, Option<StabilityPoint>),
    Snapshot(std::io::Result<Option<PathBuf>>),
    Stats,
    Draining,
}

impl From<OutOfOrder> for Answer {
    fn from(refused: OutOfOrder) -> Answer {
        Answer::Refused(refused.to_string())
    }
}

impl BatchScratch {
    /// Fresh scratch (buffers grow to steady-state over the first frames).
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// Start a new top-level frame: forget the previous frame's
    /// outcomes, keeping capacities. [`Service::execute`] appends one
    /// outcome per member after those already recorded, so a front-end
    /// that splits a frame into sub-frames collects the whole frame's
    /// outcomes in member order.
    pub fn begin_frame(&mut self) {
        self.outcomes.clear();
        self.batched = false;
    }

    /// Per-member outcomes recorded since [`begin_frame`](BatchScratch::begin_frame),
    /// in member order.
    pub fn outcomes(&self) -> &[MemberOutcome] {
        &self.outcomes
    }
}

/// The transport-independent scoring server core. See the module docs.
pub struct Engine {
    monitor: ShardedMonitor,
    snapshot_path: Option<PathBuf>,
    durable: Option<Mutex<Durable>>,
    storage: Arc<dyn Storage>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
}

impl Engine {
    /// Open an engine over the real filesystem and clock. `next_seq`
    /// is the LSN the next logged request gets; the WAL's end is found
    /// by scanning the log. After [`recover`](crate::recovery::recover),
    /// prefer [`open_in`](Engine::open_in) with
    /// [`RecoveryStats::log_end`](crate::recovery::RecoveryStats::log_end),
    /// which does not read the log a second time.
    pub fn open(
        monitor: ShardedMonitor,
        snapshot_path: Option<PathBuf>,
        durability: Option<&DurabilityConfig>,
        next_seq: u64,
    ) -> std::io::Result<Engine> {
        let storage = RealStorage::shared();
        let offset = match durability {
            Some(dcfg) => wal::scan_end(&*storage, &dcfg.wal_dir.join(WAL_FILE))?,
            None => 0,
        };
        Engine::open_in(
            monitor,
            snapshot_path,
            durability,
            LogEnd { next_seq, offset },
            storage,
            Arc::new(RealClock),
        )
    }

    /// [`open`](Engine::open) against explicit environment seams and a
    /// known WAL end — what recovery hands over
    /// ([`RecoveryStats::log_end`](crate::recovery::RecoveryStats::log_end)),
    /// or [`LogEnd::EMPTY`] for a fresh directory. The simulator calls
    /// it with its in-memory storage and logical clock.
    pub fn open_in(
        monitor: ShardedMonitor,
        snapshot_path: Option<PathBuf>,
        durability: Option<&DurabilityConfig>,
        wal_end: LogEnd,
        storage: Arc<dyn Storage>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Engine> {
        let durable = match durability {
            Some(dcfg) => {
                storage.create_dir_all(&dcfg.wal_dir)?;
                let wal = Wal::open_at(
                    Arc::clone(&storage),
                    &dcfg.wal_dir.join(WAL_FILE),
                    dcfg.sync_policy,
                    wal_end,
                    dcfg.fault_plan.clone().unwrap_or_default(),
                )?;
                Some(Mutex::new(Durable {
                    wal,
                    op_line: String::new(),
                    dir: dcfg.wal_dir.clone(),
                    storage: Arc::clone(&storage),
                    clock: Arc::clone(&clock),
                    checkpoint_every_requests: dcfg.checkpoint_every_requests,
                    checkpoint_every: dcfg.checkpoint_every,
                    keep_checkpoints: dcfg.keep_checkpoints.max(1),
                    since_checkpoint: 0,
                    last_checkpoint: clock.now(),
                    checkpoints_written: 0,
                }))
            }
            None => None,
        };
        Ok(Engine {
            monitor,
            snapshot_path,
            durable,
            storage,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// The sharded monitor (read access for summaries and tests).
    pub fn monitor(&self) -> &ShardedMonitor {
        &self.monitor
    }

    /// The sequence number of the last WAL-logged request (0 when
    /// nothing was logged or durability is off).
    pub fn wal_last_seq(&self) -> u64 {
        self.with_wal(0, |wal| wal.last_seq())
    }

    /// The WAL's durability floor (see [`Wal::synced_seq`]): the highest
    /// sequence number recovery is *guaranteed* to reach after a crash
    /// at this instant. 0 when durability is off.
    ///
    /// [`Wal::synced_seq`]: crate::wal::Wal::synced_seq
    pub fn wal_synced_seq(&self) -> u64 {
        self.with_wal(0, |wal| wal.synced_seq())
    }

    /// Fsyncs this engine's WAL has issued (0 when durability is off).
    /// Unlike `serve.wal.fsyncs`, which every engine in the process
    /// shares, this counts one engine's log: the simulator reads it
    /// around a frame to prove the frame paid one group commit.
    pub fn wal_fsyncs(&self) -> u64 {
        self.with_wal(0, |wal| wal.fsyncs())
    }

    /// Whether the WAL is dead (a failed fsync, a log that could not
    /// roll back or truncate, or a fault-injected process death: every
    /// further append, sync and checkpoint fails, and the engine has
    /// requested shutdown). The deterministic simulator polls this after
    /// every frame to restart the world; `false` when durability is off.
    pub fn wal_crashed(&self) -> bool {
        self.with_wal(false, |wal| wal.crashed())
    }

    /// Fsync the WAL now, regardless of sync policy (no-op when nothing
    /// is pending or durability is off). After this returns `Ok`, every
    /// appended record is durable — [`wal_synced_seq`](Engine::wal_synced_seq)
    /// equals [`wal_last_seq`](Engine::wal_last_seq). Replica promotion
    /// calls this so the takeover LSN is a durable one. A failure stops
    /// the node.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        self.with_wal(Ok(()), Wal::sync)
            .inspect_err(|_| self.request_shutdown())
    }

    /// `f` of the WAL under the durability lock; `off` without one.
    fn with_wal<T>(&self, off: T, f: impl FnOnce(&mut Wal) -> T) -> T {
        match &self.durable {
            Some(durable) => f(&mut lock_durable(durable).wal),
            None => off,
        }
    }

    /// Write the legacy single-file snapshot — a point-in-time
    /// [`ShardedMonitor::snapshot_bytes`] cut across all shards — to the
    /// configured path, atomically (tmp + fsync + rename). `Ok(None)`
    /// when no path is set; errors are counted on
    /// `serve.snapshot.errors` and propagated, never swallowed.
    pub fn write_snapshot(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = &self.snapshot_path else {
            return Ok(None);
        };
        if let Err(e) =
            checkpoint::atomic_write_in(&*self.storage, path, &self.monitor.snapshot_bytes())
        {
            attrition_obs::counter("serve.snapshot.errors").inc();
            return Err(e);
        }
        Ok(Some(path.clone()))
    }

    /// [`Service::respond`]: one request line as a frame of one.
    pub fn respond(&self, line: &str) -> (&'static str, String) {
        Service::respond(self, line)
    }

    /// [`Service::respond_batch`]: one `BATCH` frame, `OKBATCH <n>` first.
    pub fn respond_batch(
        &self,
        batch: &dyn BatchLines,
        scratch: &mut BatchScratch,
        out: &mut String,
    ) {
        Service::respond_batch(self, batch, scratch, out)
    }

    /// Run one parsed frame member, capturing what its response needs. A
    /// mutation is checked, logged through `durable` if accepted (its
    /// LSN lands in `seq`), and applied — unless an earlier append of the
    /// frame `failed`, whose answer it then shares.
    fn run_member(
        &self,
        request: &ParsedRequest,
        seq: &mut u64,
        durable: Option<&mut Durable>,
        failed: &mut Option<String>,
        items: &[ItemId],
        sorted: &mut Vec<ItemId>,
    ) -> Answer {
        if let (Some(message), ParsedRequest::Ingest(..) | ParsedRequest::Flush(_)) =
            (failed.as_ref(), request)
        {
            return Answer::Refused(message.clone());
        }
        match request {
            ParsedRequest::Ping => Answer::Pong,
            ParsedRequest::Ingest(customer, ..) => {
                // The shard stays locked from the check through the apply.
                let mut shard = self.monitor.lock_shard(*customer);
                let log = || Durable::log(durable, request, items, seq, failed);
                match apply(&mut shard, request, items, sorted, log) {
                    Ok(closed) => Answer::Closed(closed),
                    Err(refused) => refused,
                }
            }
            ParsedRequest::Flush(date) => {
                match Durable::log(durable, request, items, seq, failed) {
                    Ok(()) => Answer::Closed(self.monitor.flush_until(*date)),
                    Err(refused) => refused,
                }
            }
            ParsedRequest::Score(customer) => {
                Answer::Score(*customer, self.monitor.preview(*customer))
            }
            ParsedRequest::Snapshot => Answer::Snapshot(self.write_snapshot()),
            ParsedRequest::Stats => Answer::Stats,
            ParsedRequest::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Answer::Draining
            }
        }
    }

    /// Append one member's response to `out`.
    fn render(&self, answer: Answer, out: &mut String) {
        match answer {
            Answer::Refused(message) => {
                let _ = write!(out, "ERR {message}");
            }
            Answer::Pong => out.push_str("PONG"),
            Answer::Closed(closed) => write_closed_response(out, &closed),
            Answer::Score(customer, Some(point)) => format_score_into(out, customer, &point),
            Answer::Score(customer, None) => {
                let _ = write!(out, "ERR unknown customer {}", customer.raw());
            }
            Answer::Snapshot(Ok(Some(path))) => {
                let bytes = self.storage.len(&path).unwrap_or(0);
                let _ = write!(out, "OK {bytes} {}", path.display());
            }
            Answer::Snapshot(Ok(None)) => out.push_str("ERR no snapshot path configured"),
            Answer::Snapshot(Err(e)) => {
                let _ = write!(out, "ERR snapshot failed: {e}");
            }
            Answer::Stats => {
                for (shard, customers) in self.monitor.customers_per_shard().iter().enumerate() {
                    attrition_obs::gauge(&format!("serve.shard.{shard}.customers"))
                        .set(*customers as i64);
                }
                let _ = write!(
                    out,
                    "STATS {}",
                    attrition_obs::global().snapshot().to_json()
                );
            }
            Answer::Draining => out.push_str("OK draining"),
        }
    }
}

impl Service for Engine {
    /// Execute one frame. Parses every member into `scratch`'s shared
    /// arena, then runs each member once, in wire order, under the
    /// durability lock: a mutation is checked against the live monitor,
    /// appended to the WAL only if accepted, and applied. One group
    /// commit then makes the frame's records durable with **one** fsync
    /// (policy permitting), and the answers render after the lock is
    /// released — so no member is acked before the whole group is as
    /// durable as the sync policy promises. After a failed append the
    /// frame's later mutations are answered `ERR`, neither logged nor
    /// applied, so a frame's records sit in the log contiguously, in
    /// member order — what lets a replica apply a shipped batch as one
    /// frame and find each record at its shipped sequence number. A
    /// failed commit answers the logged members `ERR`; after any frame
    /// that leaves the WAL dead the engine requests shutdown (fail-stop).
    ///
    /// Appends each member's response to `out`, each followed by
    /// `'\n'`, and one [`MemberOutcome`] per member to `scratch`.
    fn execute(&self, frame: &dyn BatchLines, scratch: &mut BatchScratch, out: &mut String) {
        let n = frame.len();
        let BatchScratch {
            items,
            parsed,
            outcomes,
            apply_items,
            answers,
            ..
        } = scratch;
        items.clear();
        parsed.clear();
        let first = outcomes.len();
        for i in 0..n {
            let parse = Request::parse_into(frame.line(i), items).map_err(|ParseError(m)| m);
            let verb = parse.as_ref().map_or("parse", ParsedRequest::verb);
            outcomes.push(MemberOutcome { verb, seq: 0 });
            parsed.push(parse);
        }
        let outcomes = &mut outcomes[first..];
        let mutating = parsed
            .iter()
            .any(|p| matches!(p, Ok(ParsedRequest::Ingest(..) | ParsedRequest::Flush(_))));
        // Frames without a mutation never wait for the durability lock.
        let mut durable = self.durable.as_ref().filter(|_| mutating).map(lock_durable);
        let mut failed: Option<String> = None;
        answers.clear();
        for (parse, outcome) in parsed.iter_mut().zip(outcomes.iter_mut()) {
            answers.push(match parse {
                Err(message) => Answer::Refused(std::mem::take(message)),
                Ok(request) => self.run_member(
                    request,
                    &mut outcome.seq,
                    durable.as_deref_mut(),
                    &mut failed,
                    items,
                    apply_items,
                ),
            });
        }
        if let Some(mut d) = durable {
            let logged = outcomes.iter().filter(|o| o.seq != 0).count() as u64;
            if logged > 0 {
                // One group commit covering every append above.
                match d.wal.commit() {
                    Ok(()) => d.after_commit(&self.monitor, logged),
                    Err(e) => {
                        for (answer, outcome) in answers.iter_mut().zip(outcomes.iter()) {
                            if outcome.seq != 0 {
                                *answer = Answer::Refused(format!("wal commit failed: {e}"));
                            }
                        }
                    }
                }
            }
            if d.wal.crashed() {
                // Fail-stop: drain and exit; recovery reads the file.
                self.shutdown.store(true, Ordering::SeqCst);
            }
        }
        // Render phase, with the lock released: the next durable write
        // does not wait for this frame's formatting.
        let mut errors = 0u64;
        for answer in answers.drain(..) {
            let at = out.len();
            self.render(answer, out);
            if out[at..].starts_with("ERR") {
                errors += 1;
            }
            out.push('\n');
        }
        self.requests.fetch_add(n as u64, Ordering::Relaxed);
        attrition_obs::counter("serve.requests").add(n as u64);
        if errors > 0 {
            self.errors.fetch_add(errors, Ordering::Relaxed);
            attrition_obs::counter("serve.errors").add(errors);
        }
    }
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
    fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
    fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
    fn num_customers(&self) -> usize {
        self.monitor.num_customers()
    }
    /// The final checkpoint is written durably or its error surfaced —
    /// never swallowed.
    fn shutdown_flush(&self) -> ShutdownReport {
        let mut report = ShutdownReport::default();
        if let Some(durable) = &self.durable {
            let mut d = lock_durable(durable);
            if let Err(e) = d.checkpoint_now(&self.monitor) {
                attrition_obs::counter("serve.checkpoint.errors").inc();
                eprintln!("serve: shutdown checkpoint failed (wal retained): {e}");
                report.checkpoint_error = Some(e.to_string());
            }
            report.wal_appends = d.wal.appends();
            report.wal_fsyncs = d.wal.fsyncs();
            report.checkpoints = d.checkpoints_written;
        }
        match self.write_snapshot() {
            Ok(path) => report.snapshot_path = path,
            Err(e) => {
                eprintln!("serve: shutdown snapshot failed: {e}");
                report.snapshot_error = Some(e.to_string());
            }
        }
        report
    }
}

/// An `OK <n>` response followed by its `n` `CLOSED` lines.
fn write_closed_response(out: &mut String, closed: &[WindowClosed]) {
    let _ = write!(out, "OK {}", closed.len());
    for window in closed {
        out.push('\n');
        format_closed_into(out, window);
    }
}
