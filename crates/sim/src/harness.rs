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
//! Real, byte-for-byte the production code: `Service::execute`, the
//! frame method the TCP layer calls (request parsing, WAL-then-apply
//! ordering, one group commit per frame, checkpoint triggers),
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
//!    bit-identical (binary snapshot equality) to a reference
//!    [`StabilityMonitor`] folded over exactly the surviving WAL prefix
//!    — so no un-logged (and in particular no never-acknowledged,
//!    never-executed) record is ever visible. The log holds only
//!    mutations the monitor accepted, so the fold refuses none.
//! 3. **Snapshot round trip.** Encoding the recovered state as a
//!    binary snapshot and restoring it again yields the identical
//!    bytes.
//!
//! Before every crash, the live monitor must be bit-identical to the
//! fold of every record the node logged — acked or not, committed or
//! not (R4's live leg; invariant 2 is its recovered leg): live and
//! recovered state are one function of the log. Between crashes, every
//! `SCORE` response is compared bit-for-bit against that fold, kept
//! incrementally as the live reference, and under `sync=always` every
//! frame must pay exactly one fsync when it commits anything and none
//! otherwise (read from the engine's own counter,
//! [`Engine::wal_fsyncs`]).

use crate::env::{SimClock, SimStorage};
use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_serve::engine::{BatchScratch, DurabilityConfig, Engine, MemberOutcome, WAL_FAILURE};
use attrition_serve::protocol::{format_score, member_responses, Request};
use attrition_serve::recovery::{recover_in, Fallback};
use attrition_serve::shard::ShardedMonitor;
use attrition_serve::wal::{LogEnd, WAL_FILE};
use attrition_serve::{FaultPlan, Service, SplitMix64, Storage, SyncPolicy};
use attrition_store::WindowSpec;
use attrition_types::{Basket, CustomerId, Date, ItemId};
use std::collections::VecDeque;
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
    /// Re-introduced bug, if self-testing the harness.
    pub bug: Option<SimBug>,
}

impl SimConfig {
    /// The sweep configuration for one seed: moderate fault rates
    /// everywhere ([`seeded_faults`]), sync policy alternating by seed
    /// parity (`Always` on even seeds — where acked-survival is asserted
    /// — `Interval(3)` on odd ones, where only the sync floor is).
    /// Everything is a pure function of the seed — the repro command
    /// re-derives the same world.
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
            faults: seeded_faults(seed),
            checkpoint_every_requests: 24,
            checkpoint_every: Some(Duration::from_secs(2)),
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
    /// Crash-restarts caused by a WAL death between a frame's appends
    /// and its group-commit fsync — the dead WAL answered a logged
    /// member with a WAL failure (a subset of `crashes`).
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

/// The sweeps' fault plan for one seed: [`FaultPlan::seeded`], plus one
/// failed fsync on half the seeds (bit 1, so both sync-policy parities
/// get it) at an LSN early in the run. A failed fsync kills the WAL, so
/// the world crash-restarts there — and again after each restart that
/// lost the record, until a reopened WAL syncs past it.
pub fn seeded_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        fail_sync_seq: (seed & 2 == 0).then_some(5 + seed % 40),
        ..FaultPlan::seeded(seed)
    }
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

/// A mutating request a node logged: what the invariant checks fold
/// over after each recovery.
#[derive(Debug)]
pub(crate) struct OpEntry {
    pub(crate) seq: u64,
    pub(crate) line: String,
    /// The client received its `OK` (a logged member whose group commit
    /// failed was answered `ERR`).
    pub(crate) acked: bool,
}

/// The client-side books both worlds keep about the node they write
/// to: every logged mutation by LSN, a live reference monitor — the
/// fold of every one of them, in log order — and the counters the
/// reports carry.
pub(crate) struct Ledger {
    pub(crate) oplog: Vec<OpEntry>,
    pub(crate) mirror: StabilityMonitor,
    pub(crate) ops: u64,
    pub(crate) acked: u64,
    pub(crate) wal_records: u64,
    pub(crate) score_checks: u64,
    pub(crate) invariant_checks: u64,
}

impl Ledger {
    pub(crate) fn new() -> Ledger {
        Ledger {
            oplog: Vec::new(),
            mirror: fresh_monitor(),
            ops: 0,
            acked: 0,
            wal_records: 0,
            score_checks: 0,
            invariant_checks: 0,
        }
    }

    /// Account for one executed frame member by member, using the
    /// node's own [`MemberOutcome`] attribution (cross-checked against
    /// the response text): WAL sequence numbers, acks, the live
    /// reference, `SCORE` bit-identity. `delivered` says whether the
    /// responses reached the client. `fsyncs` is what the frame cost the
    /// node's WAL under `sync=always` (`None` under other policies):
    /// exactly one group commit when any member committed, none
    /// otherwise. The first violation is returned.
    pub(crate) fn account(
        &mut self,
        frame: &[String],
        out: &str,
        outcomes: &[MemberOutcome],
        delivered: bool,
        fsyncs: Option<u64>,
    ) -> Result<(), String> {
        self.invariant_checks += 1;
        if outcomes.len() != frame.len() {
            return Err(format!(
                "a frame of {} members came back with {} outcomes",
                frame.len(),
                outcomes.len()
            ));
        }
        let mut committed = false;
        for ((line, response), outcome) in frame.iter().zip(member_responses(out)).zip(outcomes) {
            self.ops += 1;
            if delivered {
                self.acked += 1;
            }
            match Request::parse(line) {
                Ok(Request::Ingest(..)) | Ok(Request::Flush(_)) => {
                    self.invariant_checks += 1;
                    let ok = response.starts_with("OK");
                    if outcome.seq == 0 {
                        if ok {
                            return Err(format!(
                                "mutation answered without a wal record: {line:?} -> {response:?}"
                            ));
                        }
                        continue;
                    }
                    // Logged, so applied: answered `OK`, or `ERR` by a
                    // failed group commit — never refused.
                    if !ok && !response.starts_with(WAL_FAILURE) {
                        return Err(format!(
                            "a logged mutation was refused: seq {} {line:?} -> {response:?}",
                            outcome.seq
                        ));
                    }
                    committed |= ok;
                    self.wal_records += 1;
                    self.oplog.push(OpEntry {
                        seq: outcome.seq,
                        line: line.clone(),
                        acked: delivered && ok,
                    });
                    fold_step(&mut self.mirror, line)
                        .map_err(|e| format!("seq {}: {e}", outcome.seq))?;
                }
                Ok(Request::Score(customer)) => {
                    self.score_checks += 1;
                    self.invariant_checks += 1;
                    let expected = match self.mirror.preview(customer) {
                        Some(point) => format_score(customer, &point),
                        None => format!("ERR unknown customer {}", customer.raw()),
                    };
                    if response != expected {
                        return Err(format!(
                            "SCORE diverged from the reference monitor: got {response:?}, \
                             expected {expected:?}"
                        ));
                    }
                }
                _ => {}
            }
        }
        if let Some(paid) = fsyncs {
            self.invariant_checks += 1;
            if paid != u64::from(committed) {
                return Err(format!(
                    "a frame of {} members paid {paid} fsyncs under sync=always \
                     (committed: {committed}); one group commit per frame",
                    frame.len()
                ));
            }
        }
        Ok(())
    }

    /// Fold the logged prefix (`seq <= floor`) into a fresh monitor —
    /// what a node recovered or replicated to `floor` must equal
    /// bit-for-bit. Errs if the log holds a record the fold refuses.
    pub(crate) fn fold(&self, floor: u64) -> Result<StabilityMonitor, String> {
        let mut monitor = fresh_monitor();
        self.fold_into(&mut monitor, 0, floor)?;
        Ok(monitor)
    }

    /// Fold the logged records `after < seq <= upto` into `monitor`, in
    /// log order.
    pub(crate) fn fold_into(
        &self,
        monitor: &mut StabilityMonitor,
        after: u64,
        upto: u64,
    ) -> Result<(), String> {
        self.oplog
            .iter()
            .filter(|e| after < e.seq && e.seq <= upto)
            .try_for_each(|e| {
                fold_step(monitor, &e.line).map_err(|m| format!("seq {}: {m}", e.seq))
            })
    }

    /// The live leg of R4, checked before a node crashes: its live
    /// monitor must be bit-identical to the fold of every record it
    /// logged up to `floor`, committed or not.
    pub(crate) fn check_live(&mut self, node: &str, live: &[u8], floor: u64) -> Result<(), String> {
        self.invariant_checks += 1;
        if live != self.fold(floor)?.snapshot_bytes() {
            let logged: Vec<u64> = self
                .oplog
                .iter()
                .map(|e| e.seq)
                .filter(|&s| s <= floor)
                .collect();
            return Err(format!(
                "R4 violated: {node}'s live state diverged from the fold of the {} records \
                 it logged (last seq {})",
                logged.len(),
                logged.last().unwrap_or(&0)
            ));
        }
        Ok(())
    }
}

/// Execute one frame on `node` through [`Service::execute`] — the
/// method the TCP layer calls for a single line and a `BATCH` alike —
/// and return its body plus the per-member outcomes. With
/// `member_by_member` each member runs as a frame of its own: the fault
/// the trait's old member-by-member default had, planted on purpose.
pub(crate) fn execute_frame(
    node: &dyn Service,
    frame: &[String],
    member_by_member: bool,
) -> (String, Vec<MemberOutcome>) {
    let mut scratch = BatchScratch::new();
    let mut out = String::new();
    if member_by_member {
        for line in frame {
            node.execute(&vec![line], &mut scratch, &mut out);
        }
    } else {
        node.execute(&frame.to_vec(), &mut scratch, &mut out);
    }
    (out, scratch.outcomes().to_vec())
}

/// One scripted client op: a mix of `INGEST` (dates advancing month by
/// month, with occasional backdated receipts to exercise the
/// out-of-order `ERR` path), `SCORE` (some on unknown customers),
/// `FLUSH`, `PING`, and malformed lines.
pub(crate) fn scripted_op(rng: &mut SplitMix64, month: i32, n_customers: u64) -> String {
    let draw = rng.below(100);
    if draw < 60 {
        let customer = CustomerId::new(1 + rng.below(n_customers));
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
        let customer = CustomerId::new(1 + rng.below(n_customers + 4));
        Request::Score(customer).to_line()
    } else if draw < 88 {
        let (y, mo, _) = origin().add_months(month).ymd();
        Request::Flush(Date::from_ymd(y, mo, 1).expect("month start is valid")).to_line()
    } else if draw < 96 {
        "PING".to_owned()
    } else {
        format!("BOGUS {}", rng.below(100))
    }
}

/// The scripted client workload, pre-generated from `rng`: `n_ops`
/// request lines framed as a mix of single lines and `BATCH` frames of
/// 2–6 members (~a quarter of the ops arrive batched). Transport faults
/// (drop / duplicate / delay) act on whole frames, exactly as they
/// would on the wire.
pub(crate) fn script_frames(
    rng: &mut SplitMix64,
    n_ops: u64,
    n_customers: u64,
) -> VecDeque<Vec<String>> {
    let mut frames = VecDeque::with_capacity(n_ops as usize);
    let mut i = 0u64;
    while i < n_ops {
        let k = if rng.per_mille(120) {
            2 + rng.below(5)
        } else {
            1
        };
        let mut members = Vec::with_capacity(k as usize);
        while (members.len() as u64) < k && i < n_ops {
            members.push(scripted_op(rng, (i / OPS_PER_MONTH) as i32, n_customers));
            i += 1;
        }
        frames.push_back(members);
    }
    frames
}

struct Sim {
    config: SimConfig,
    storage: Arc<SimStorage>,
    clock: Arc<SimClock>,
    dcfg: DurabilityConfig,
    engine: Engine,
    ledger: Ledger,
    transport_rng: SplitMix64,
    crash_rng: SplitMix64,
    crashes: u64,
    mid_commit_crashes: u64,
    clean_restarts: u64,
    transport_faults: u64,
    violations: Vec<String>,
}

pub(crate) fn fresh_monitor() -> StabilityMonitor {
    StabilityMonitor::new(spec(), StabilityParams::PAPER).with_max_explanations(MAX_EXPLANATIONS)
}

/// One step of the reference fold: apply one logged op to `monitor`,
/// in the monitor's own `ingest` shape — independent of the engine's
/// apply path. The engine logs only mutations its monitor accepts, so a
/// record this monitor refuses is an error, never a skip.
pub(crate) fn fold_step(monitor: &mut StabilityMonitor, line: &str) -> Result<(), String> {
    match Request::parse(line).expect("the harness only logs valid mutations") {
        Request::Ingest(customer, date, items) => {
            if let (Some(window), Some(preview)) =
                (monitor.spec().window_of(date), monitor.preview(customer))
            {
                if window.raw() < preview.window.raw() {
                    return Err(format!(
                        "the log holds a record the monitor refuses: {line:?} is before \
                         window {}",
                        preview.window.raw()
                    ));
                }
            }
            monitor.ingest(customer, date, &Basket::new(items));
        }
        Request::Flush(date) => {
            monitor.flush_until(date);
        }
        other => panic!("non-mutating {other:?} in the op log"),
    }
    Ok(())
}

impl Sim {
    fn new(config: SimConfig) -> Sim {
        let storage: Arc<SimStorage> = Arc::new(SimStorage::new());
        let clock = Arc::new(SimClock::new());
        let dcfg = DurabilityConfig {
            sync_policy: config.sync_policy,
            checkpoint_every_requests: config.checkpoint_every_requests,
            checkpoint_every: config.checkpoint_every,
            keep_checkpoints: 2,
            fault_plan: Some(config.faults.clone()),
            ..DurabilityConfig::new("/sim/wal")
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
            ledger: Ledger::new(),
            crashes: 0,
            mid_commit_crashes: 0,
            clean_restarts: 0,
            transport_faults: 0,
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, message: String) {
        self.violations.push(message);
    }

    /// Execute one frame against the engine (the simulated server side)
    /// and account for it member by member. Returns whether the frame's
    /// group commit failed after its appends: a logged member was
    /// answered with a WAL failure.
    fn deliver(&mut self, frame: &[String], acked: bool) -> bool {
        let fsyncs = self.engine.wal_fsyncs();
        let (out, outcomes) = execute_frame(&self.engine, frame, false);
        let paid = (self.config.sync_policy == SyncPolicy::Always)
            .then(|| self.engine.wal_fsyncs() - fsyncs);
        if let Err(violation) = self.ledger.account(frame, &out, &outcomes, acked, paid) {
            self.violation(violation);
        }
        let commit_failed = outcomes
            .iter()
            .zip(member_responses(&out))
            .any(|(outcome, response)| outcome.seq != 0 && response.starts_with(WAL_FAILURE));
        commit_failed
    }

    /// Kill the engine (optionally after a clean shutdown), crash the
    /// disk, run the real recovery, check the invariants, and bring a
    /// new engine up on the recovered state.
    fn restart(&mut self, clean: bool) {
        // R4's live leg, before anything else touches the state.
        if let Err(violation) = self.ledger.check_live(
            "the node",
            &self.engine.monitor().snapshot_bytes(),
            u64::MAX,
        ) {
            self.violation(violation);
            return;
        }
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
        self.ledger.invariant_checks += 1;
        if floor < synced_floor {
            self.violation(format!(
                "recovery lost durable records: reached seq {floor}, but seq {synced_floor} \
                 was fsynced before the crash"
            ));
            return;
        }
        // Invariant 1b: under `always`, every acknowledged mutation is
        // durable by contract, so it must have survived.
        if self.config.sync_policy == SyncPolicy::Always {
            self.ledger.invariant_checks += 1;
            if let Some(lost) = self.ledger.oplog.iter().find(|e| e.acked && e.seq > floor) {
                self.violation(format!(
                    "acked mutation lost under sync=always: seq {} {:?} (recovery reached {floor})",
                    lost.seq, lost.line
                ));
                return;
            }
        }
        // Invariant 2: the recovered state is bit-identical to the fold
        // of exactly the surviving prefix — no un-logged (in particular
        // no never-executed) record visible.
        self.ledger.invariant_checks += 1;
        let reference = match self.ledger.fold(floor) {
            Ok(reference) => reference,
            Err(e) => {
                self.violation(e);
                return;
            }
        };
        let recovered = monitor.snapshot_bytes();
        if reference.snapshot_bytes() != recovered {
            self.violation(format!(
                "recovered state diverges from the acknowledged prefix at seq {floor} \
                 ({} records folded): snapshots differ",
                self.ledger.oplog.iter().filter(|e| e.seq <= floor).count()
            ));
            return;
        }
        // Invariant 3: the recovered state's binary snapshot restores to
        // a monitor that re-encodes it byte for byte.
        self.ledger.invariant_checks += 1;
        match StabilityMonitor::restore_bytes(&recovered) {
            Ok(round_tripped) => {
                if round_tripped.snapshot_bytes() != recovered {
                    self.violation(format!(
                        "binary snapshot round-trip diverges after recovery at seq {floor}"
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
        self.ledger.oplog.retain(|e| e.seq <= floor);
        self.ledger.mirror = reference;

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
        let mut script_rng = SplitMix64::new(self.config.seed ^ 0x3077_0AD5_0000_0003);
        let mut pending =
            script_frames(&mut script_rng, self.config.n_ops, self.config.n_customers);
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
            let mut commit_failed = false;
            if plan.drop_message(&mut self.transport_rng) {
                self.transport_faults += 1;
                if self.transport_rng.below(2) == 0 {
                    // Frame lost in flight: the server never saw it.
                } else {
                    // Response lost: executed server-side, never acked.
                    commit_failed = self.deliver(&item, false);
                }
            } else {
                commit_failed = self.deliver(&item, true);
                if plan.duplicate_message(&mut self.transport_rng) {
                    // A duplicated frame: the server executes it twice;
                    // the client sees (one of) the responses.
                    self.transport_faults += 1;
                    commit_failed |= self.deliver(&item, true);
                }
            }
            if self.violations.is_empty() {
                if self.engine.wal_crashed() {
                    // A fault froze the WAL. The process is as good as
                    // dead: crash-restart and prove the floor held. When
                    // the frame's commit failed, this is the
                    // mid-group-commit window where the frame sits in the
                    // file with none of it durable or acked.
                    if commit_failed {
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
            ops: self.ledger.ops,
            acked: self.ledger.acked,
            crashes: self.crashes,
            mid_commit_crashes: self.mid_commit_crashes,
            clean_restarts: self.clean_restarts,
            faults_injected: self.transport_faults
                + storage.torn_files
                + storage.rolled_back_ops
                + self.crashes,
            score_checks: self.ledger.score_checks,
            invariant_checks: self.ledger.invariant_checks,
            wal_records: self.ledger.wal_records,
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
    fn repro_command_names_the_public_test() {
        assert_eq!(
            repro_command(42),
            "ATTRITION_SIM_SEED=42 cargo test -p attrition-sim --test sim repro_seed -- --nocapture"
        );
    }
}
