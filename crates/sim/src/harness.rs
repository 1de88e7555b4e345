//! The simulation driver: a scripted client workload against the real
//! [`Engine`] under seeded message faults and crash-restarts.
//!
//! One [`run`] is one fully deterministic world: a [`SimConfig::seed`]
//! fixes the workload, every transport fault (drop / duplicate /
//! delay-reorder), every disk fault the [`FaultPlan`] injects inside the
//! WAL, where crashes land, and which unsynced bytes each crash tears
//! off. Re-running the same seed replays the identical interleaving —
//! that is what makes a failure printed by the 4096-seed sweep a
//! one-command repro instead of a flake.
//!
//! ## What is real and what is simulated
//!
//! Real, byte-for-byte the production code: `Engine::respond` (request
//! parsing, WAL-then-apply ordering, checkpoint triggers),
//! `wal.rs` framing and rollback, `checkpoint.rs` atomic writes,
//! `recovery.rs` restore+replay. Simulated: the clock
//! ([`SimClock`]), the disk ([`SimStorage`]), and the wire (this
//! module's delivery loop standing in for TCP).
//!
//! ## The invariants (DESIGN §11)
//!
//! After every recovery — mid-run crashes, clean restarts, and one
//! final mandatory crash — the harness checks, against its own op log:
//!
//! 1. **Durability floor.** Recovery must reach at least
//!    [`Engine::wal_synced_seq`] as captured the instant before the
//!    crash: no record the sync policy called durable may be lost.
//!    Under `SyncPolicy::Always` this implies every *acknowledged*
//!    `INGEST`/`FLUSH` survives (checked explicitly as well).
//! 2. **Exact prefix state.** The recovered monitor must be
//!    bit-identical (snapshot string equality) to a reference
//!    [`StabilityMonitor`] folded over exactly the surviving WAL prefix
//!    — so no un-logged (and in particular no never-acknowledged,
//!    never-executed) record is ever visible, and replay reproduces the
//!    out-of-order rejections the live server made.
//! 3. **Format interoperability.** Re-encoding the recovered state as
//!    a binary snapshot and restoring it again yields a bit-identical
//!    text snapshot. Each run checkpoints in the text or binary format
//!    (chosen per seed), so the sweep exercises recovery from both.
//!
//! Between crashes, every `SCORE` response is compared bit-for-bit
//! against a live reference monitor fed the applied mutations.

use crate::env::{SimClock, SimStorage};
use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_serve::checkpoint::CheckpointFormat;
use attrition_serve::engine::{BatchScratch, DurabilityConfig, Engine};
use attrition_serve::protocol::{format_score, Request};
use attrition_serve::recovery::{recover_in, Fallback};
use attrition_serve::shard::ShardedMonitor;
use attrition_serve::wal::{LogEnd, WAL_FILE};
use attrition_serve::{FaultPlan, SplitMix64, Storage, SyncPolicy};
use attrition_store::WindowSpec;
use attrition_types::{Basket, CustomerId, Date, ItemId};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A deliberately re-introduced bug, for proving the harness *can*
/// catch what it claims to catch (the sweep must fail, with a seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimBug {
    /// Reopen the WAL at the file's length instead of the end of its
    /// last valid frame (what recovery hands over): appends land past
    /// the zero extent, behind a hole, and the *next* recovery — which
    /// must read the zeros as the log's end — cuts every record after
    /// them. The exact failure mode the recovered-end handoff exists to
    /// prevent.
    ResumeAtFileLength,
}

/// One simulated world. Construct via [`SimConfig::for_seed`] (the
/// sweep's shape) or [`SimConfig::with_bug`] (the self-test shape), then
/// tweak fields as needed.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed: fixes workload, faults, crash points, torn bytes.
    pub seed: u64,
    /// Client operations scripted for the run.
    pub n_ops: u64,
    /// Customers the workload spreads over.
    pub n_customers: u64,
    /// Shards the engine routes across (scoring must stay bit-identical
    /// to a single monitor regardless).
    pub n_shards: usize,
    /// WAL sync policy — the durability contract under test.
    pub sync_policy: SyncPolicy,
    /// Fault schedule (disk faults run inside the real WAL; message and
    /// crash faults run in this harness).
    pub faults: FaultPlan,
    /// Checkpoint count trigger (0 disables).
    pub checkpoint_every_requests: u64,
    /// Checkpoint time trigger in *logical* time (None disables).
    pub checkpoint_every: Option<Duration>,
    /// On-disk checkpoint framing the engine writes — both formats must
    /// satisfy the same invariants.
    pub checkpoint_format: CheckpointFormat,
    /// Re-introduced bug, if self-testing the harness.
    pub bug: Option<SimBug>,
}

impl SimConfig {
    /// The sweep configuration for one seed: moderate fault rates
    /// everywhere, sync policy alternating by seed parity (`Always` on
    /// even seeds — where acked-survival is asserted — `Interval(3)` on
    /// odd ones, where only the sync floor is), and checkpoint format
    /// alternating on the next seed bit (so each `(policy, format)`
    /// pair is swept). Everything is a pure function of the seed —
    /// the repro command re-derives the same world, format included.
    pub fn for_seed(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            n_ops: 400,
            n_customers: 12,
            n_shards: 4,
            sync_policy: if seed.is_multiple_of(2) {
                SyncPolicy::Always
            } else {
                SyncPolicy::Interval(3)
            },
            faults: FaultPlan::seeded(seed),
            checkpoint_every_requests: 24,
            checkpoint_every: Some(Duration::from_secs(2)),
            checkpoint_format: if (seed >> 1).is_multiple_of(2) {
                CheckpointFormat::Binary
            } else {
                CheckpointFormat::Text
            },
            bug: None,
        }
    }

    /// [`for_seed`](SimConfig::for_seed) with a bug re-introduced and
    /// the conditions that expose it: an interval sync policy (so some
    /// crashes leave a clean end with the zero extent past it) and
    /// periodic checkpoints off (so a checkpoint truncation cannot cut
    /// the extent away and mask the bug).
    pub fn with_bug(seed: u64, bug: SimBug) -> SimConfig {
        SimConfig {
            sync_policy: SyncPolicy::Interval(2),
            checkpoint_every_requests: 0,
            checkpoint_every: None,
            bug: Some(bug),
            ..SimConfig::for_seed(seed)
        }
    }
}

/// What one [`run`] did and found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// The seed that reproduces everything below.
    pub seed: u64,
    /// Requests executed by the engine (duplicates included).
    pub ops: u64,
    /// Responses delivered back to the scripted client.
    pub acked: u64,
    /// Crash-restarts (faulted and the final mandatory one).
    pub crashes: u64,
    /// Crash-restarts caused by a WAL death between a batch's appends
    /// and its group-commit fsync (a subset of `crashes`).
    pub mid_commit_crashes: u64,
    /// Clean shutdown-and-recover cycles.
    pub clean_restarts: u64,
    /// Faults injected across transport, disk, and crash layers.
    pub faults_injected: u64,
    /// `SCORE` responses compared against the reference monitor.
    pub score_checks: u64,
    /// Individual invariant assertions evaluated.
    pub invariant_checks: u64,
    /// Mutations the WAL logged over the whole run.
    pub wal_records: u64,
    /// Customers live at the end.
    pub customers: usize,
    /// Invariant violations (empty = the run passed). The run stops at
    /// the first one — after it, engine and reference have diverged.
    pub violations: Vec<String>,
}

impl SimReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the violation, the seed, and the one-command repro if
    /// the run failed.
    pub fn assert_ok(&self) {
        if let Some(first) = self.violations.first() {
            panic!(
                "simulation seed {} violated an invariant: {first}\n  reproduce with: {}",
                self.seed,
                repro_command(self.seed)
            );
        }
    }
}

/// The exact command that replays a failing seed.
pub fn repro_command(seed: u64) -> String {
    format!(
        "ATTRITION_SIM_SEED={seed} cargo test -p attrition-sim --test sim repro_seed -- --nocapture"
    )
}

const ORIGIN: (i32, u32, u32) = (2012, 5, 1);
pub(crate) const MAX_EXPLANATIONS: usize = 5;
/// Ops per simulated month of workload time.
pub(crate) const OPS_PER_MONTH: u64 = 25;

pub(crate) fn origin() -> Date {
    Date::from_ymd(ORIGIN.0, ORIGIN.1, ORIGIN.2).expect("valid origin")
}

pub(crate) fn spec() -> WindowSpec {
    WindowSpec::months(origin(), 1)
}

/// One scripted client frame: a single request line, or a `BATCH`
/// frame's member lines. Transport faults (drop / duplicate / delay)
/// act on whole frames, exactly as they would on the wire.
#[derive(Debug, Clone)]
enum ScriptItem {
    Single(String),
    Batch(Vec<String>),
}

/// A mutating request the engine logged: what the invariant checks fold
/// over after each recovery.
#[derive(Debug)]
struct OpEntry {
    seq: u64,
    line: String,
    acked: bool,
    /// The response was `OK …` (not an out-of-order or injected-fault
    /// `ERR`), i.e. the op mutated the live state.
    applied: bool,
}

struct Sim {
    config: SimConfig,
    storage: Arc<SimStorage>,
    clock: Arc<SimClock>,
    dcfg: DurabilityConfig,
    engine: Engine,
    /// Live reference: a plain monitor fed every applied mutation, in
    /// delivery order — `SCORE` must match it bit-for-bit.
    mirror: StabilityMonitor,
    oplog: Vec<OpEntry>,
    transport_rng: SplitMix64,
    crash_rng: SplitMix64,
    ops: u64,
    acked: u64,
    crashes: u64,
    mid_commit_crashes: u64,
    clean_restarts: u64,
    transport_faults: u64,
    score_checks: u64,
    invariant_checks: u64,
    wal_records: u64,
    violations: Vec<String>,
}

pub(crate) fn fresh_monitor() -> StabilityMonitor {
    StabilityMonitor::new(spec(), StabilityParams::PAPER).with_max_explanations(MAX_EXPLANATIONS)
}

/// Apply one logged op the way `recovery.rs` replays it: mirror the
/// live out-of-order rejection, so a record the server answered `ERR`
/// to mutates nothing here either.
pub(crate) fn apply_replayed(monitor: &mut StabilityMonitor, line: &str) {
    match Request::parse(line).expect("the harness only logs valid mutations") {
        Request::Ingest(customer, date, items) => {
            let rejected = match (monitor.spec().window_of(date), monitor.preview(customer)) {
                (Some(window), Some(preview)) => window.raw() < preview.window.raw(),
                _ => false,
            };
            if !rejected {
                monitor.ingest(customer, date, &Basket::new(items));
            }
        }
        Request::Flush(date) => {
            monitor.flush_until(date);
        }
        other => panic!("non-mutating {:?} in the op log", other.verb()),
    }
}

/// Apply an op the engine *accepted* (answered `OK`) to the live mirror
/// — no rejection logic needed, the engine already decided.
pub(crate) fn apply_accepted(monitor: &mut StabilityMonitor, line: &str) {
    match Request::parse(line).expect("the harness only logs valid mutations") {
        Request::Ingest(customer, date, items) => {
            monitor.ingest(customer, date, &Basket::new(items));
        }
        Request::Flush(date) => {
            monitor.flush_until(date);
        }
        other => panic!("non-mutating {:?} in the op log", other.verb()),
    }
}

impl Sim {
    fn new(config: SimConfig) -> Sim {
        let storage: Arc<SimStorage> = Arc::new(SimStorage::new());
        let clock = Arc::new(SimClock::new());
        let dcfg = DurabilityConfig {
            wal_dir: PathBuf::from("/sim/wal"),
            sync_policy: config.sync_policy,
            checkpoint_every_requests: config.checkpoint_every_requests,
            checkpoint_every: config.checkpoint_every,
            keep_checkpoints: 2,
            checkpoint_format: config.checkpoint_format,
            fault_plan: Some(config.faults.clone()),
        };
        let monitor = ShardedMonitor::new(
            config.n_shards,
            spec(),
            StabilityParams::PAPER,
            MAX_EXPLANATIONS,
        );
        let engine = Engine::open_in(
            monitor,
            None,
            Some(&dcfg),
            LogEnd::EMPTY,
            Arc::clone(&storage) as Arc<dyn Storage>,
            Arc::clone(&clock) as Arc<dyn attrition_serve::Clock>,
        )
        .expect("in-memory engine open cannot fail");
        Sim {
            transport_rng: SplitMix64::new(config.seed ^ 0x7AA9_5EED_0000_0001),
            crash_rng: SplitMix64::new(config.seed ^ 0xC4A5_85EE_D000_0002),
            config,
            storage,
            clock,
            dcfg,
            engine,
            mirror: fresh_monitor(),
            oplog: Vec::new(),
            ops: 0,
            acked: 0,
            crashes: 0,
            mid_commit_crashes: 0,
            clean_restarts: 0,
            transport_faults: 0,
            score_checks: 0,
            invariant_checks: 0,
            wal_records: 0,
            violations: Vec::new(),
        }
    }

    /// One scripted request line for logical op index `i`: a mix of
    /// `INGEST` (dates advancing month by month, with occasional
    /// backdated receipts to exercise the out-of-order `ERR` path),
    /// `SCORE` (some on unknown customers), `FLUSH`, `PING`, and
    /// malformed lines.
    fn script_line(&self, rng: &mut SplitMix64, i: u64) -> String {
        let month = (i / OPS_PER_MONTH) as i32;
        let draw = rng.below(100);
        if draw < 60 {
            let customer = CustomerId::new(1 + rng.below(self.config.n_customers));
            let m = if rng.per_mille(80) {
                (month - 2).max(0) // backdated: may be out-of-order
            } else {
                month + rng.below(2) as i32
            };
            let (y, mo, _) = origin().add_months(m).ymd();
            let day = 1 + rng.below(28) as u32;
            let date = Date::from_ymd(y, mo, day).expect("clamped day is valid");
            let items: Vec<ItemId> = (0..1 + rng.below(4))
                .map(|_| ItemId::new(1 + rng.below(40) as u32))
                .collect();
            Request::Ingest(customer, date, items).to_line()
        } else if draw < 80 {
            let customer = CustomerId::new(1 + rng.below(self.config.n_customers + 4));
            Request::Score(customer).to_line()
        } else if draw < 88 {
            let (y, mo, _) = origin().add_months(month).ymd();
            Request::Flush(Date::from_ymd(y, mo, 1).unwrap()).to_line()
        } else if draw < 96 {
            "PING".to_owned()
        } else {
            format!("BOGUS {}", rng.below(100))
        }
    }

    /// The scripted client workload, pre-generated from the seed:
    /// `n_ops` request lines framed as a mix of single frames and
    /// `BATCH` frames of 2–6 members (~a quarter of the ops arrive
    /// batched, so both the single-op and group-commit WAL paths face
    /// every fault schedule).
    fn script(&self) -> VecDeque<ScriptItem> {
        let mut rng = SplitMix64::new(self.config.seed ^ 0x3077_0AD5_0000_0003);
        let mut frames = VecDeque::with_capacity(self.config.n_ops as usize);
        let mut i = 0u64;
        while i < self.config.n_ops {
            if rng.per_mille(120) {
                let k = 2 + rng.below(5);
                let mut members = Vec::with_capacity(k as usize);
                while (members.len() as u64) < k && i < self.config.n_ops {
                    members.push(self.script_line(&mut rng, i));
                    i += 1;
                }
                frames.push_back(ScriptItem::Batch(members));
            } else {
                frames.push_back(ScriptItem::Single(self.script_line(&mut rng, i)));
                i += 1;
            }
        }
        frames
    }

    fn violation(&mut self, message: String) {
        self.violations.push(message);
    }

    /// Execute one request against the engine (the simulated server
    /// side) and account for it: WAL sequence attribution, ack/applied
    /// tracking, live mirror update, `SCORE` bit-identity check.
    fn deliver(&mut self, line: &str, acked: bool) {
        let before = self.engine.wal_last_seq();
        let (_verb, response) = self.engine.respond(line);
        let after = self.engine.wal_last_seq();
        self.ops += 1;
        if acked {
            self.acked += 1;
        }
        match Request::parse(line) {
            Ok(Request::Ingest(..)) | Ok(Request::Flush(_)) => {
                let applied = response.starts_with("OK");
                if after > before {
                    self.wal_records += after - before;
                    self.oplog.push(OpEntry {
                        seq: after,
                        line: line.to_owned(),
                        acked,
                        applied,
                    });
                } else if applied {
                    self.violation(format!(
                        "mutation applied without a wal record: {line:?} -> {response:?}"
                    ));
                }
                if applied {
                    apply_accepted(&mut self.mirror, line);
                }
            }
            Ok(Request::Score(customer)) => {
                self.score_checks += 1;
                self.invariant_checks += 1;
                let expected = match self.mirror.preview(customer) {
                    Some(point) => format_score(customer, &point),
                    None => format!("ERR unknown customer {}", customer.raw()),
                };
                if response != expected {
                    self.violation(format!(
                        "SCORE diverged from the reference monitor: got {response:?}, \
                         expected {expected:?}"
                    ));
                }
            }
            _ => {}
        }
    }

    /// One frame, either shape.
    fn deliver_item(&mut self, item: &ScriptItem, acked: bool) {
        match item {
            ScriptItem::Single(line) => self.deliver(line, acked),
            ScriptItem::Batch(members) => self.deliver_batch(members, acked),
        }
    }

    /// Execute one `BATCH` frame through the real group-commit path
    /// ([`Engine::respond_batch`]) and account for every member using
    /// the engine's own [`MemberOutcome`] attribution — plus a
    /// cross-check that the attribution agrees with the response text.
    ///
    /// [`MemberOutcome`]: attrition_serve::MemberOutcome
    fn deliver_batch(&mut self, members: &[String], acked: bool) {
        let batch: Vec<String> = members.to_vec();
        let mut scratch = BatchScratch::new();
        let mut out = String::new();
        self.engine.respond_batch(&batch, &mut scratch, &mut out);
        let responses = split_member_responses(&out, members.len());
        let outcomes = scratch.outcomes().to_vec();
        for ((line, response), outcome) in members.iter().zip(&responses).zip(&outcomes) {
            self.ops += 1;
            if acked {
                self.acked += 1;
            }
            match Request::parse(line) {
                Ok(Request::Ingest(..)) | Ok(Request::Flush(_)) => {
                    self.invariant_checks += 1;
                    if outcome.applied != response.starts_with("OK") {
                        self.violation(format!(
                            "batch outcome disagrees with the member response: \
                             applied={} but response {response:?} for {line:?}",
                            outcome.applied
                        ));
                        return;
                    }
                    if outcome.logged {
                        self.wal_records += 1;
                        self.oplog.push(OpEntry {
                            seq: outcome.seq,
                            line: line.clone(),
                            acked,
                            applied: outcome.applied,
                        });
                    } else if outcome.applied {
                        self.violation(format!(
                            "batch mutation applied without a wal record: {line:?} -> {response:?}"
                        ));
                        return;
                    }
                    if outcome.applied {
                        apply_accepted(&mut self.mirror, line);
                    }
                }
                Ok(Request::Score(customer)) => {
                    self.score_checks += 1;
                    self.invariant_checks += 1;
                    let expected = match self.mirror.preview(customer) {
                        Some(point) => format_score(customer, &point),
                        None => format!("ERR unknown customer {}", customer.raw()),
                    };
                    if *response != expected {
                        self.violation(format!(
                            "batched SCORE diverged from the reference monitor: \
                             got {response:?}, expected {expected:?}"
                        ));
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Fold the surviving WAL prefix (`seq <= floor`) into a fresh
    /// monitor — what the recovered state must equal bit-for-bit.
    fn fold_reference(&self, floor: u64) -> StabilityMonitor {
        let mut monitor = fresh_monitor();
        for entry in &self.oplog {
            if entry.seq <= floor {
                apply_replayed(&mut monitor, &entry.line);
            }
        }
        monitor
    }

    /// Kill the engine (optionally after a clean shutdown), crash the
    /// disk, run the real recovery, check the invariants, and bring a
    /// new engine up on the recovered state.
    fn restart(&mut self, clean: bool) {
        // Captured *before* the crash: the floor the sync policy
        // guarantees, and (after a clean shutdown) everything.
        if clean {
            self.clean_restarts += 1;
            let report = self.engine.shutdown_flush();
            if let Some(e) = report.checkpoint_error {
                // Possible under an injected-fault plan; the WAL still
                // holds the tail, which is exactly what recovery tests.
                eprintln!("sim: shutdown checkpoint failed under faults: {e}");
            }
        } else {
            self.crashes += 1;
        }
        let synced_floor = self.engine.wal_synced_seq();
        self.storage.crash(&mut self.crash_rng);

        let fallback = Fallback {
            spec: spec(),
            params: StabilityParams::PAPER,
            max_explanations: MAX_EXPLANATIONS,
        };
        let (monitor, stats) = match recover_in(&*self.storage, &self.dcfg.wal_dir, Some(&fallback))
        {
            Ok(recovered) => recovered,
            Err(e) => {
                self.violation(format!("recovery failed: {e}"));
                return;
            }
        };
        let floor = stats.next_seq - 1;

        // Invariant 1a: the durability floor. Nothing the sync policy
        // called durable may be lost.
        self.invariant_checks += 1;
        if floor < synced_floor {
            self.violation(format!(
                "recovery lost durable records: reached seq {floor}, but seq {synced_floor} \
                 was fsynced before the crash"
            ));
            return;
        }
        // Invariant 1b: under `always`, every acknowledged applied
        // mutation is durable by contract, so it must have survived.
        if self.config.sync_policy == SyncPolicy::Always {
            self.invariant_checks += 1;
            if let Some(lost) = self
                .oplog
                .iter()
                .find(|e| e.acked && e.applied && e.seq > floor)
            {
                self.violation(format!(
                    "acked mutation lost under sync=always: seq {} {:?} (recovery reached {floor})",
                    lost.seq, lost.line
                ));
                return;
            }
        }
        // Invariant 2: the recovered state is bit-identical to the fold
        // of exactly the surviving prefix — no un-logged (in particular
        // no never-executed) record visible, out-of-order rejections
        // reproduced.
        self.invariant_checks += 1;
        let reference = self.fold_reference(floor);
        if reference.snapshot() != monitor.snapshot() {
            self.violation(format!(
                "recovered state diverges from the acknowledged prefix at seq {floor} \
                 ({} records folded): snapshots differ",
                self.oplog.iter().filter(|e| e.seq <= floor).count()
            ));
            return;
        }
        // Invariant 3: format interoperability. The recovered state,
        // re-encoded as a *binary* snapshot and restored again, must be
        // bit-identical to its text snapshot — whichever format the
        // engine was checkpointing in this run.
        self.invariant_checks += 1;
        match StabilityMonitor::restore_any(&monitor.snapshot_bytes()) {
            Ok(round_tripped) => {
                if round_tripped.snapshot() != monitor.snapshot() {
                    self.violation(format!(
                        "binary snapshot round-trip diverges after recovery at seq {floor} \
                         (checkpoint format {})",
                        self.config.checkpoint_format
                    ));
                    return;
                }
            }
            Err(e) => {
                self.violation(format!(
                    "binary snapshot of recovered state failed to restore: {e}"
                ));
                return;
            }
        }

        // Records above the floor are gone; their sequence numbers will
        // be reassigned by the reopened WAL.
        self.oplog.retain(|e| e.seq <= floor);
        self.mirror = reference;

        let mut wal_end = stats.log_end();
        if self.config.bug == Some(SimBug::ResumeAtFileLength) {
            // Re-introduce the bug: ignore the handed-over end and
            // resume where the file ends, past the zero extent.
            let wal_path = self.dcfg.wal_dir.join(WAL_FILE);
            wal_end.offset = self.storage.len(&wal_path).unwrap_or(wal_end.offset);
        }

        let sharded = ShardedMonitor::from_monitor(monitor, self.config.n_shards);
        match Engine::open_in(
            sharded,
            None,
            Some(&self.dcfg),
            wal_end,
            Arc::clone(&self.storage) as Arc<dyn Storage>,
            Arc::clone(&self.clock) as Arc<dyn attrition_serve::Clock>,
        ) {
            Ok(engine) => self.engine = engine,
            Err(e) => self.violation(format!("engine reopen failed after recovery: {e}")),
        }
    }

    fn run(mut self) -> SimReport {
        let plan = self.config.faults.clone();
        let mut pending = self.script();
        while let Some(item) = pending.pop_front() {
            if !self.violations.is_empty() {
                break;
            }
            self.clock
                .advance(Duration::from_millis(1 + self.transport_rng.below(40)));
            // Delay: the frame is delivered later — which reorders it
            // past the frames behind it.
            if plan.delay_message(&mut self.transport_rng) && !pending.is_empty() {
                self.transport_faults += 1;
                let slot = (1 + self.transport_rng.below(4) as usize).min(pending.len());
                pending.insert(slot, item);
                continue;
            }
            if plan.drop_message(&mut self.transport_rng) {
                self.transport_faults += 1;
                if self.transport_rng.below(2) == 0 {
                    // Frame lost in flight: the server never saw it.
                } else {
                    // Response lost: executed server-side, never acked.
                    self.deliver_item(&item, false);
                }
            } else {
                self.deliver_item(&item, true);
                if plan.duplicate_message(&mut self.transport_rng) {
                    // A duplicated frame: the server executes it twice;
                    // the client sees (one of) the responses.
                    self.transport_faults += 1;
                    self.deliver_item(&item, true);
                }
            }
            if self.violations.is_empty() {
                if self.engine.wal_crashed() {
                    // A fault froze the WAL — for batches, the
                    // mid-group-commit window where a whole frame sits
                    // in the file with none of it durable or acked.
                    // The process is as good as dead: crash-restart and
                    // prove the floor held.
                    if matches!(item, ScriptItem::Batch(_)) {
                        self.mid_commit_crashes += 1;
                    }
                    self.restart(false);
                } else if plan.crash_now(&mut self.crash_rng) {
                    self.restart(false);
                } else if self.config.bug.is_none() && self.crash_rng.per_mille(4) {
                    self.restart(true);
                }
            }
        }
        // The mandatory final crash: every run ends by proving the
        // current acknowledged state survives power loss.
        if self.violations.is_empty() {
            self.restart(false);
        }
        let storage = self.storage.stats();
        SimReport {
            seed: self.config.seed,
            ops: self.ops,
            acked: self.acked,
            crashes: self.crashes,
            mid_commit_crashes: self.mid_commit_crashes,
            clean_restarts: self.clean_restarts,
            faults_injected: self.transport_faults
                + storage.torn_files
                + storage.rolled_back_ops
                + self.crashes,
            score_checks: self.score_checks,
            invariant_checks: self.invariant_checks,
            wal_records: self.wal_records,
            customers: self.engine.num_customers(),
            violations: self.violations,
        }
    }
}

/// Run one simulated world to completion. See the module docs for what
/// is checked; [`SimReport::assert_ok`] turns a failure into a panic
/// carrying the seed and the repro command.
pub fn run(config: &SimConfig) -> SimReport {
    Sim::new(config.clone()).run()
}

/// Split an `OKBATCH` frame body back into its per-member responses.
/// Member responses are self-describing — `OK <n>` announces `n`
/// follow-up `CLOSED` lines — so the split needs no other framing.
fn split_member_responses(body: &str, n: usize) -> Vec<String> {
    let mut lines = body.lines();
    let header = lines.next().unwrap_or("");
    debug_assert!(
        header.starts_with("OKBATCH "),
        "not a batch body: {header:?}"
    );
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        let first = lines.next().unwrap_or("");
        let extra = first
            .strip_prefix("OK ")
            .and_then(|rest| rest.trim().parse::<usize>().ok())
            .unwrap_or(0);
        let mut response = first.to_owned();
        for _ in 0..extra {
            response.push('\n');
            response.push_str(lines.next().unwrap_or(""));
        }
        members.push(response);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_world_passes_and_loses_nothing() {
        let config = SimConfig {
            faults: FaultPlan::none(),
            ..SimConfig::for_seed(0)
        };
        let report = run(&config);
        report.assert_ok();
        assert_eq!(report.crashes, 1, "only the final mandatory crash");
        assert_eq!(report.acked, report.ops, "no faults: every op acked");
        assert!(report.wal_records > 0);
        assert!(report.score_checks > 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(&SimConfig::for_seed(5));
        let b = run(&SimConfig::for_seed(5));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = run(&SimConfig::for_seed(6));
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "seed must matter");
    }

    #[test]
    fn faulty_worlds_actually_inject_faults() {
        let report = run(&SimConfig::for_seed(1));
        report.assert_ok();
        assert!(report.faults_injected > 0, "{report:?}");
        assert!(report.crashes >= 1);
        // Drops cost executions (request lost) or acks (response lost);
        // duplicates add executions — under faults the two never line
        // up with the scripted op count on both sides at once.
        let config = SimConfig::for_seed(1);
        assert!(
            report.ops != config.n_ops || report.acked != config.n_ops,
            "no transport fault had any effect: {report:?}"
        );
    }

    #[test]
    fn checkpoint_format_is_a_pure_function_of_the_seed() {
        // The repro command only carries the seed, so everything the
        // world depends on — format included — must re-derive from it.
        assert_eq!(
            SimConfig::for_seed(0).checkpoint_format,
            CheckpointFormat::Binary
        );
        assert_eq!(
            SimConfig::for_seed(2).checkpoint_format,
            CheckpointFormat::Text
        );
        // Seeds 0..4 cover every (sync policy, format) pair.
        let formats: Vec<CheckpointFormat> = (0..4)
            .map(|s| SimConfig::for_seed(s).checkpoint_format)
            .collect();
        assert!(formats.contains(&CheckpointFormat::Text));
        assert!(formats.contains(&CheckpointFormat::Binary));
        for s in 0..4 {
            assert_eq!(
                SimConfig::for_seed(s).checkpoint_format,
                SimConfig::for_seed(s).checkpoint_format
            );
        }
    }

    #[test]
    fn both_checkpoint_formats_survive_the_sim() {
        for seed in [0, 2] {
            let config = SimConfig::for_seed(seed);
            let report = run(&config);
            report.assert_ok();
        }
    }

    #[test]
    fn batched_frames_are_scripted_and_survive_quiet_worlds() {
        let config = SimConfig {
            faults: FaultPlan::none(),
            ..SimConfig::for_seed(3)
        };
        let report = run(&config);
        report.assert_ok();
        assert_eq!(report.acked, report.ops, "no faults: every op acked");
        assert_eq!(report.mid_commit_crashes, 0);
    }

    #[test]
    fn mid_commit_crashes_keep_the_durability_floor() {
        // Only the group-commit fault class: every crash the sweep sees
        // here is the window where a whole batch is in the file but none
        // of it is durable or acked. The floor invariants must hold
        // through each one.
        let mut observed = 0u64;
        for seed in 0..12 {
            let config = SimConfig {
                faults: FaultPlan {
                    seed,
                    crash_commit_per_mille: 700,
                    ..FaultPlan::none()
                },
                ..SimConfig::for_seed(seed)
            };
            let report = run(&config);
            report.assert_ok();
            observed += report.mid_commit_crashes;
        }
        assert!(observed > 0, "no mid-group-commit crash was ever injected");
    }

    #[test]
    fn split_member_responses_handles_multi_line_members() {
        let body = "OKBATCH 3\nPONG\nOK 2\nCLOSED a\nCLOSED b\nERR nope";
        assert_eq!(
            split_member_responses(body, 3),
            vec![
                "PONG".to_owned(),
                "OK 2\nCLOSED a\nCLOSED b".to_owned(),
                "ERR nope".to_owned()
            ]
        );
    }

    #[test]
    fn repro_command_names_the_public_test() {
        assert_eq!(
            repro_command(42),
            "ATTRITION_SIM_SEED=42 cargo test -p attrition-sim --test sim repro_seed -- --nocapture"
        );
    }
}
