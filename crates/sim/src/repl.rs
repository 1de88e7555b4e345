//! The replication simulator: a real primary ([`PrimaryService`]) and a
//! real replica ([`ReplicaEngine`]) on separate crash-faithful disks,
//! sharing one logical clock, exchanging the *production wire bytes*
//! over a seeded lossy [`SimNet`] — drops, duplicates, delay-reorders,
//! partitions — while the primary's disk, the replica's disk, and both
//! processes crash on seeded schedules, and every run ends in a
//! mandatory failover.
//!
//! One [`ReplSimConfig::seed`] fixes the whole world; a failing seed
//! replays with:
//!
//! ```text
//! ATTRITION_REPL_SEED=<seed> cargo test -p attrition-sim --test repl repro_repl_seed -- --nocapture
//! ```
//!
//! ## The replication invariants (DESIGN §13)
//!
//! - **R1 — no acked-durable loss on failover.** The harness tracks the
//!   highest replica-durable LSN whose acknowledgement was actually
//!   *delivered* to the primary (the only LSNs anything external may
//!   rely on). A promotion must take over at or above it, and a
//!   recovered replica must never land below it.
//! - **R2 — byte-equal state at equal LSN.** After every applied
//!   shipment, every recovery, and at the promotion point, the
//!   replica's merged monitor snapshot must be byte-identical to a
//!   reference monitor folded over exactly the primary's logged ops up
//!   to the replica's applied LSN (compared as binary snapshots).
//!
//! - **R4 — live == recovered == replica.** Before any node crashes,
//!   its live monitor must be byte-identical to the fold of every record
//!   it logged, committed or not (the live leg; R2 and the single-node
//!   invariant 2 are the replica and recovered legs). A failed fsync
//!   kills the node's WAL, so it is crash-restarted right there.
//!
//! Alongside those, the single-node invariants keep running on both
//! nodes (durability floor on every recovery, acked-survival under
//! `sync=always`, `SCORE` bit-identity against the reference, one fsync
//! per committing frame under `sync=always`), plus one
//! replication-specific safety check: a recovered primary must never be
//! *behind* its replica (the durable-floor shipping cap at work). The
//! client writes single lines and `BATCH` frames to the active node
//! through [`Service::execute`], the frame method the TCP layer calls,
//! and a node whose WAL died mid-commit is crash-restarted.
//!
//! - **R3 — a rejoined deposed primary carries no divergent record.**
//!   When [`ReplSimConfig::rejoin_phase`] is on, the old primary's disk
//!   is reopened as a replica after the failover and healed back in via
//!   the `REJOIN` handshake. From the moment it adopts the new epoch,
//!   its snapshot must be byte-equal to a reference folded over exactly
//!   the *new* timeline's log prefix at its applied LSN — any record
//!   from the divergent suffix surviving the rejoin breaks the
//!   equality. A rejoin world replays with:
//!
//! ```text
//! ATTRITION_REPL_SEED=<seed> cargo test -p attrition-sim --test rejoin repro_rejoin_seed -- --nocapture
//! ```
//!
//! [`ReplSimBug::AcceptStaleEpoch`] re-introduces the classic failover
//! bug — applying a dead primary's in-flight shipment after promotion —
//! and the sweep proves R2 catches it with a replayable seed.
//! [`ReplSimBug::KeepDivergentSuffix`] does the same for the rejoin
//! path: the deposed primary adopts the new epoch but keeps its
//! divergent records, and R3 must catch the ghost state.
//! [`ReplSimBug::MemberByMemberFrames`] runs the primary's frames one
//! member at a time, and the fsync count per frame must catch it.

use crate::env::{SimClock, SimStorage};
use crate::harness::{
    execute_frame, fresh_monitor, script_frames, scripted_op, seeded_faults, spec, Ledger,
    MAX_EXPLANATIONS, OPS_PER_MONTH,
};
use crate::net::SimNet;
use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_replica::{
    FetchResponse, PrimaryService, RejoinRequest, RejoinResponse, ReplicaConfig, ReplicaEngine,
};
use attrition_serve::engine::{DurabilityConfig, Engine};
use attrition_serve::protocol::{format_score, Request};
use attrition_serve::recovery::{recover_in, Fallback};
use attrition_serve::shard::ShardedMonitor;
use attrition_serve::{FaultPlan, LogEnd, Service, SplitMix64, Storage, SyncPolicy};
use attrition_types::CustomerId;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const PRIMARY_DIR: &str = "/sim/primary";
const REPLICA_DIR: &str = "/sim/replica";

/// A deliberately re-introduced replication bug, for proving the sweep
/// fails loudly when the protocol is actually broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplSimBug {
    /// Skip the epoch fence on the replica: a dead primary's in-flight
    /// shipment, surfacing after promotion, gets *applied* — records
    /// the new timeline disowned sneak into the promoted state, and the
    /// R2 byte-equality check must catch the divergence.
    AcceptStaleEpoch,
    /// Skip the divergent-suffix discard on rejoin: the deposed primary
    /// adopts the new epoch but keeps every record it wrote past the
    /// promotion LSN — ghost state the new timeline disowned — and the
    /// R3 byte-equality check must catch it.
    KeepDivergentSuffix,
    /// Run the primary's frames one member at a time, as the `Service`
    /// trait's old member-by-member default did: every mutating member
    /// pays its own fsync, and the one-fsync-per-frame check under
    /// `sync=always` must catch it.
    MemberByMemberFrames,
}

/// One simulated replicated world. Construct via
/// [`ReplSimConfig::for_seed`] or [`ReplSimConfig::with_bug`].
#[derive(Debug, Clone)]
pub struct ReplSimConfig {
    /// Master seed: fixes workload, transport faults, partitions, disk
    /// faults, crash points, and the failover point.
    pub seed: u64,
    /// Client operations scripted against the active node.
    pub n_ops: u64,
    /// Customers the workload spreads over.
    pub n_customers: u64,
    /// Monitor shards on both nodes.
    pub n_shards: usize,
    /// The primary's WAL sync policy.
    pub primary_sync: SyncPolicy,
    /// The replica's WAL sync policy (its durable floor is what acks —
    /// and therefore R1 — are made of).
    pub replica_sync: SyncPolicy,
    /// Fault schedule: disk faults inside both WALs, message faults on
    /// both link directions, crash points in the driver.
    pub faults: FaultPlan,
    /// Checkpoint count trigger on both nodes (primary checkpoints
    /// truncate its WAL, forcing the replica's snapshot-bootstrap path
    /// whenever it lags past one).
    pub checkpoint_every_requests: u64,
    /// Per-round rate of partition windows on each link direction.
    pub partition_per_mille: u32,
    /// Records the replica requests per fetch.
    pub batch_max: u64,
    /// After the failover and coda, reopen the deposed primary's disk
    /// as a replica and heal it back in via the `REJOIN` handshake,
    /// checking invariant R3 under the same transport and crash faults.
    pub rejoin_phase: bool,
    /// Client operations scripted against the promoted node while the
    /// deposed primary rejoins and catches up.
    pub rejoin_ops: u64,
    /// Re-introduced bug, if self-testing the harness.
    pub bug: Option<ReplSimBug>,
}

impl ReplSimConfig {
    /// The sweep configuration for one seed: every fault class on
    /// ([`seeded_faults`]: both nodes fail one fsync on half the seeds),
    /// sync policies alternating across seed bits so the sweep covers
    /// each combination, and a small batch size on some seeds to force
    /// multi-round catch-ups.
    pub fn for_seed(seed: u64) -> ReplSimConfig {
        ReplSimConfig {
            seed,
            n_ops: 280,
            n_customers: 12,
            n_shards: 4,
            primary_sync: if seed.is_multiple_of(2) {
                SyncPolicy::Always
            } else {
                SyncPolicy::Interval(3)
            },
            replica_sync: if (seed >> 2).is_multiple_of(2) {
                SyncPolicy::Always
            } else {
                SyncPolicy::Interval(2)
            },
            faults: seeded_faults(seed),
            checkpoint_every_requests: 24,
            partition_per_mille: 12,
            batch_max: if (seed >> 3).is_multiple_of(2) { 64 } else { 5 },
            rejoin_phase: false,
            rejoin_ops: 0,
            bug: None,
        }
    }

    /// [`for_seed`](ReplSimConfig::for_seed) with the rejoin phase on:
    /// the world ends with the deposed primary healed back in as a
    /// replica of the new generation, under invariant R3.
    pub fn for_rejoin_seed(seed: u64) -> ReplSimConfig {
        ReplSimConfig {
            rejoin_phase: true,
            rejoin_ops: 90,
            ..ReplSimConfig::for_seed(seed)
        }
    }

    /// The base world for a bug with extra delivery delay, so
    /// dead-primary shipments are reliably in flight at the failover
    /// and the deposed node reliably holds a divergent suffix.
    pub fn with_bug(seed: u64, bug: ReplSimBug) -> ReplSimConfig {
        let base = match bug {
            ReplSimBug::AcceptStaleEpoch | ReplSimBug::MemberByMemberFrames => {
                ReplSimConfig::for_seed(seed)
            }
            ReplSimBug::KeepDivergentSuffix => ReplSimConfig::for_rejoin_seed(seed),
        };
        ReplSimConfig {
            faults: FaultPlan {
                delay_per_mille: 250,
                ..seeded_faults(seed)
            },
            bug: Some(bug),
            ..base
        }
    }
}

/// What one replicated run did and found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplReport {
    /// The seed that reproduces everything below.
    pub seed: u64,
    /// Client requests executed against the active node.
    pub ops: u64,
    /// Mutations the active node's WAL logged.
    pub wal_records: u64,
    /// Shipments the replica applied (batches and snapshots).
    pub batches_applied: u64,
    /// Records newly applied on the replica.
    pub records_replicated: u64,
    /// Shipped records skipped as duplicates/reorders.
    pub records_skipped: u64,
    /// Snapshot bootstraps installed (the replica lagged past a primary
    /// checkpoint truncation).
    pub snapshots_installed: u64,
    /// Stale-epoch shipments the fence rejected.
    pub fenced: u64,
    /// Liveness-only replication errors retried (`ERR` answers, batch
    /// gaps after a replica crash, mid-crash misalignments).
    pub repl_errors: u64,
    /// Primary crash-recoveries.
    pub primary_crashes: u64,
    /// Replica crash-recoveries (including post-promotion ones).
    pub replica_crashes: u64,
    /// Failovers executed (exactly 1 in a passing run).
    pub failovers: u64,
    /// Epoch after the last promotion.
    pub promoted_epoch: u64,
    /// The LSN the promotion took over at.
    pub promotion_lsn: u64,
    /// Partition windows opened across both link directions.
    pub partitions: u64,
    /// Transport faults injected across both link directions.
    pub transport_faults: u64,
    /// `SCORE` responses compared bit-for-bit against a reference.
    pub score_checks: u64,
    /// Whether the world ran the deposed-primary rejoin phase (decides
    /// which repro command a failure prints).
    pub rejoin_phase: bool,
    /// Successful `REJOIN` adoptions by the deposed primary (re-runs
    /// after its crashes or after re-promotions included).
    pub rejoins: u64,
    /// Divergent-suffix records the rejoin discard rule destroyed.
    pub divergent_records_discarded: u64,
    /// New-timeline records the rejoined node applied after healing.
    pub rejoin_records_applied: u64,
    /// Crash-recoveries of the rejoined node during the rejoin phase.
    pub rejoined_crashes: u64,
    /// Individual invariant assertions evaluated.
    pub invariant_checks: u64,
    /// Invariant violations (empty = the run passed); the run stops at
    /// the first one.
    pub violations: Vec<String>,
}

impl ReplReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the violation, the seed, and the one-command repro if
    /// the run failed.
    pub fn assert_ok(&self) {
        if let Some(first) = self.violations.first() {
            let repro = if self.rejoin_phase {
                repro_rejoin_command(self.seed)
            } else {
                repro_repl_command(self.seed)
            };
            panic!(
                "replication sim seed {} violated an invariant: {first}\n  reproduce with: {repro}",
                self.seed,
            );
        }
    }
}

/// The exact command that replays a failing replication seed.
pub fn repro_repl_command(seed: u64) -> String {
    format!(
        "ATTRITION_REPL_SEED={seed} cargo test -p attrition-sim --test repl repro_repl_seed -- --nocapture"
    )
}

/// The exact command that replays a failing rejoin-phase seed.
pub fn repro_rejoin_command(seed: u64) -> String {
    format!(
        "ATTRITION_REPL_SEED={seed} cargo test -p attrition-sim --test rejoin repro_rejoin_seed -- --nocapture"
    )
}

fn fallback() -> Fallback {
    Fallback {
        spec: spec(),
        params: StabilityParams::PAPER,
        max_explanations: MAX_EXPLANATIONS,
    }
}

struct ReplSim {
    config: ReplSimConfig,
    clock: Arc<SimClock>,
    storage_p: Arc<SimStorage>,
    storage_r: Arc<SimStorage>,
    pcfg: DurabilityConfig,
    rcfg: ReplicaConfig,
    /// The deposed primary's configuration as a *replica* over its own
    /// (old-primary) directory, for the rejoin phase.
    rjcfg: ReplicaConfig,
    primary: Option<PrimaryService>,
    replica: ReplicaEngine,
    /// The deposed primary reopened as a replica (rejoin phase only).
    /// `Arc` so a round can hold the node while the harness mutates its
    /// own counters.
    rejoined: Option<Arc<ReplicaEngine>>,
    net_req: SimNet,
    net_resp: SimNet,
    /// The rejoiner's own lossy link directions toward the new primary.
    net_req2: SimNet,
    net_resp2: SimNet,
    /// The client's books about the *active* node: mutations logged on
    /// the current write timeline (ascending seq), a live reference of
    /// its state, and the shared counters.
    ledger: Ledger,
    /// Reference fold of the oplog up to `repl_mirror_seq` — what the
    /// replica must byte-equal at its applied LSN (invariant R2).
    repl_mirror: StabilityMonitor,
    repl_mirror_seq: u64,
    /// Reference fold for the *rejoined* node — what it must byte-equal
    /// at its applied LSN once it is current (invariant R3).
    rj_mirror: StabilityMonitor,
    rj_mirror_seq: u64,
    /// The rejoined node has durably adopted an epoch newer than the
    /// one it was deposed at — only then is its state a pure prefix of
    /// the new timeline and the R3 fold comparison meaningful.
    rj_current: bool,
    /// The rejoiner's next round must run the `REJOIN` handshake
    /// instead of an ordinary fetch.
    rj_handshake: bool,
    /// The epoch the dead primary was at when it lost the cluster.
    deposed_epoch: u64,
    /// Highest replica-durable LSN whose ack was delivered upstream —
    /// the R1 floor.
    repl_acked: u64,
    promoted: bool,
    transport_rng: SplitMix64,
    crash_rng: SplitMix64,
    batches_applied: u64,
    records_replicated: u64,
    records_skipped: u64,
    snapshots_installed: u64,
    fenced: u64,
    repl_errors: u64,
    primary_crashes: u64,
    replica_crashes: u64,
    failovers: u64,
    promoted_epoch: u64,
    promotion_lsn: u64,
    rejoins: u64,
    divergent_discarded: u64,
    rejoin_records: u64,
    rejoined_crashes: u64,
    violations: Vec<String>,
}

impl ReplSim {
    fn new(config: ReplSimConfig) -> ReplSim {
        let storage_p: Arc<SimStorage> = Arc::new(SimStorage::new());
        let storage_r: Arc<SimStorage> = Arc::new(SimStorage::new());
        let clock = Arc::new(SimClock::new());
        let pcfg = DurabilityConfig {
            sync_policy: config.primary_sync,
            checkpoint_every_requests: config.checkpoint_every_requests,
            checkpoint_every: None,
            keep_checkpoints: 2,
            fault_plan: Some(config.faults.clone()),
            ..DurabilityConfig::new(PRIMARY_DIR)
        };
        let rcfg = ReplicaConfig {
            wal_dir: PathBuf::from(REPLICA_DIR),
            n_shards: config.n_shards,
            durability: DurabilityConfig {
                sync_policy: config.replica_sync,
                checkpoint_every_requests: 16,
                checkpoint_every: None,
                keep_checkpoints: 2,
                fault_plan: Some(FaultPlan {
                    seed: config.seed ^ 0x0E70_0000_0000_0016,
                    ..config.faults.clone()
                }),
                ..DurabilityConfig::new(REPLICA_DIR)
            },
            fallback: fallback(),
            accept_stale_epoch: config.bug == Some(ReplSimBug::AcceptStaleEpoch),
            keep_divergent_suffix: false,
        };
        // The deposed primary's second life: a replica over the *old
        // primary's* directory, healing in via the rejoin handshake.
        let rjcfg = ReplicaConfig {
            wal_dir: PathBuf::from(PRIMARY_DIR),
            n_shards: config.n_shards,
            durability: DurabilityConfig {
                sync_policy: config.replica_sync,
                checkpoint_every_requests: 16,
                checkpoint_every: None,
                keep_checkpoints: 2,
                fault_plan: Some(FaultPlan {
                    seed: config.seed ^ 0x0E70_0000_0000_0019,
                    ..config.faults.clone()
                }),
                ..DurabilityConfig::new(PRIMARY_DIR)
            },
            fallback: fallback(),
            accept_stale_epoch: false,
            keep_divergent_suffix: config.bug == Some(ReplSimBug::KeepDivergentSuffix),
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
            Some(&pcfg),
            LogEnd::EMPTY,
            Arc::clone(&storage_p) as Arc<dyn Storage>,
            Arc::clone(&clock) as Arc<dyn attrition_serve::Clock>,
        )
        .expect("in-memory engine open cannot fail");
        let primary = PrimaryService::open_in(
            Arc::new(engine),
            Arc::clone(&storage_p) as Arc<dyn Storage>,
            Path::new(PRIMARY_DIR),
        )
        .expect("in-memory primary open cannot fail");
        let (replica, _stats) = ReplicaEngine::open_in(
            rcfg.clone(),
            Arc::clone(&storage_r) as Arc<dyn Storage>,
            Arc::clone(&clock) as Arc<dyn attrition_serve::Clock>,
        )
        .expect("in-memory replica open cannot fail");
        ReplSim {
            net_req: SimNet::new(
                config.seed ^ 0x0E70_0000_0000_0014,
                config.faults.clone(),
                config.partition_per_mille,
            ),
            net_resp: SimNet::new(
                config.seed ^ 0x0E70_0000_0000_0015,
                config.faults.clone(),
                config.partition_per_mille,
            ),
            net_req2: SimNet::new(
                config.seed ^ 0x0E70_0000_0000_001A,
                config.faults.clone(),
                config.partition_per_mille,
            ),
            net_resp2: SimNet::new(
                config.seed ^ 0x0E70_0000_0000_001B,
                config.faults.clone(),
                config.partition_per_mille,
            ),
            transport_rng: SplitMix64::new(config.seed ^ 0x7AA9_5EED_0000_0011),
            crash_rng: SplitMix64::new(config.seed ^ 0xC4A5_85EE_D000_0012),
            config,
            clock,
            storage_p,
            storage_r,
            pcfg,
            rcfg,
            rjcfg,
            primary: Some(primary),
            replica,
            rejoined: None,
            ledger: Ledger::new(),
            repl_mirror: fresh_monitor(),
            repl_mirror_seq: 0,
            rj_mirror: fresh_monitor(),
            rj_mirror_seq: 0,
            rj_current: false,
            rj_handshake: false,
            deposed_epoch: 0,
            repl_acked: 0,
            promoted: false,
            batches_applied: 0,
            records_replicated: 0,
            records_skipped: 0,
            snapshots_installed: 0,
            fenced: 0,
            repl_errors: 0,
            primary_crashes: 0,
            replica_crashes: 0,
            failovers: 0,
            promoted_epoch: 0,
            promotion_lsn: 0,
            rejoins: 0,
            divergent_discarded: 0,
            rejoin_records: 0,
            rejoined_crashes: 0,
            violations: Vec::new(),
        }
    }

    /// A short deterministic coda of writes for the promoted node: every
    /// run must prove the new primary actually accepts and serves them.
    fn coda(&self) -> Vec<String> {
        let mut rng = SplitMix64::new(self.config.seed ^ 0x3077_0AD5_0000_0017);
        let month = (self.config.n_ops / OPS_PER_MONTH) as i32 + 1;
        (0..12)
            .map(|_| scripted_op(&mut rng, month, self.config.n_customers))
            .collect()
    }

    fn violation(&mut self, message: String) {
        self.violations.push(message);
    }

    /// [`Ledger::fold`], a refused record recorded as a violation.
    fn fold(&mut self, floor: u64) -> Option<StabilityMonitor> {
        self.ledger
            .fold(floor)
            .map_err(|e| self.violations.push(e))
            .ok()
    }

    /// R4's live leg for `node` (whose live state is `live`), checked
    /// before it crashes; `false` once violated.
    fn live_holds(&mut self, node: &str, live: &[u8], floor: u64) -> bool {
        self.ledger
            .check_live(node, live, floor)
            .map_err(|e| self.violations.push(e))
            .is_ok()
    }

    /// Execute one client frame on the active node and account for it
    /// member by member (op log, live mirror, `SCORE` bit-identity, one
    /// fsync per committing frame under `sync=always`).
    fn deliver(&mut self, frame: &[String]) {
        let (node, engine, sync, member_by_member): (&dyn Service, _, _, _) = if self.promoted {
            let engine = self.replica.engine();
            (&self.replica, engine, self.config.replica_sync, false)
        } else {
            let Some(primary) = &self.primary else {
                return;
            };
            let bug = self.config.bug == Some(ReplSimBug::MemberByMemberFrames);
            (
                primary,
                Arc::clone(primary.engine()),
                self.config.primary_sync,
                bug,
            )
        };
        let before = engine.wal_fsyncs();
        let (out, outcomes) = execute_frame(node, frame, member_by_member);
        let paid = (sync == SyncPolicy::Always).then(|| engine.wal_fsyncs() - before);
        if let Err(violation) = self.ledger.account(frame, &out, &outcomes, true, paid) {
            self.violation(format!("active node: {violation}"));
        }
    }

    /// A WAL that died mid-commit (a fault-injected process death)
    /// leaves its node as good as dead: crash-restart every such node,
    /// so the floors are proven to hold through it.
    fn restart_dead_nodes(&mut self) {
        if self
            .primary
            .as_ref()
            .is_some_and(|p| p.engine().wal_crashed())
        {
            self.restart_primary();
        }
        if self.violations.is_empty() && self.replica.engine().wal_crashed() {
            if self.promoted {
                self.restart_active();
            } else {
                self.restart_replica();
            }
        }
        if self.violations.is_empty()
            && self
                .rejoined
                .as_ref()
                .is_some_and(|rj| rj.engine().wal_crashed())
        {
            self.restart_rejoined();
        }
    }

    /// One replication round: the replica fetches, the link misbehaves,
    /// the primary answers from its durable log, the replica applies
    /// whatever lands.
    fn repl_round(&mut self) {
        self.net_req.tick();
        self.net_resp.tick();
        let req = self.replica.fetch_request(self.config.batch_max);
        self.net_req.send(req.to_line(), self.replica.durable_seq());
        for flight in self.net_req.deliver_due() {
            // The request's arrival is the ack: the primary now knows
            // the replica holds `meta` durably. Only *delivered* acks
            // count toward the R1 floor.
            self.repl_acked = self.repl_acked.max(flight.meta);
            let Some(primary) = self.primary.as_ref() else {
                break;
            };
            let (_verb, response) = primary.respond(&flight.payload);
            self.net_resp.send(response, 0);
        }
        for flight in self.net_resp.deliver_due() {
            self.apply_wire(&flight.payload);
            if !self.violations.is_empty() {
                break;
            }
        }
    }

    /// Hand one wire response to the replica — exactly the bytes a TCP
    /// fetch would have read.
    fn apply_wire(&mut self, text: &str) {
        if text.starts_with("ERR") {
            self.repl_errors += 1;
            return;
        }
        let resp = match FetchResponse::parse(text) {
            Ok(resp) => resp,
            Err(e) => {
                self.violation(format!("unparseable shipment: {e} (payload {text:?})"));
                return;
            }
        };
        match self.replica.apply_response(&resp) {
            Ok(applied) => {
                self.batches_applied += 1;
                self.records_replicated += applied.fresh;
                self.records_skipped += applied.skipped;
                if applied.snapshot_installed {
                    self.snapshots_installed += 1;
                }
                if applied.fresh > 0 || applied.snapshot_installed {
                    self.check_replica_state("after an applied shipment");
                }
            }
            Err(e) if e.contains("fenced") => self.fenced += 1,
            // Batch gaps (a delayed response landing after a replica
            // crash regressed its LSN) and mid-crash apply errors are
            // liveness events: the replica re-fetches from its real
            // state. Safety stays with R1/R2.
            Err(_) => self.repl_errors += 1,
        }
    }

    /// Invariant R2 at the replica's current applied LSN, plus a
    /// replica-side `SCORE` bit-identity probe.
    fn check_replica_state(&mut self, context: &str) {
        let applied = self.replica.applied_seq();
        if applied < self.repl_mirror_seq {
            // The replica regressed (crash recovery): re-fold.
            self.repl_mirror = fresh_monitor();
            self.repl_mirror_seq = 0;
        }
        if let Err(e) = self
            .ledger
            .fold_into(&mut self.repl_mirror, self.repl_mirror_seq, applied)
        {
            self.violation(e);
            return;
        }
        self.repl_mirror_seq = applied;
        self.ledger.invariant_checks += 1;
        let engine = self.replica.engine();
        if engine.monitor().snapshot_bytes() != self.repl_mirror.snapshot_bytes() {
            self.violation(format!(
                "R2 violated {context}: replica state at LSN {applied} is not byte-equal \
                 to the primary's log prefix"
            ));
            return;
        }
        // A replica answers reads: its SCOREs must be bit-identical to
        // the reference at its LSN.
        self.ledger.score_checks += 1;
        self.ledger.invariant_checks += 1;
        let customer = CustomerId::new(1 + self.transport_rng.below(self.config.n_customers));
        let (_verb, response) = self.replica.respond(&Request::Score(customer).to_line());
        let expected = match self.repl_mirror.preview(customer) {
            Some(point) => format_score(customer, &point),
            None => format!("ERR unknown customer {}", customer.raw()),
        };
        if response != expected {
            self.violation(format!(
                "replica SCORE diverged at LSN {applied}: got {response:?}, expected {expected:?}"
            ));
        }
    }

    /// Crash the primary's disk and process, recover it, and check the
    /// single-node invariants plus the never-behind-the-replica cap.
    fn restart_primary(&mut self) {
        let Some(service) = self.primary.take() else {
            return;
        };
        self.primary_crashes += 1;
        let live = service.engine().monitor().snapshot_bytes();
        if !self.live_holds("the primary", &live, u64::MAX) {
            return;
        }
        let synced_floor = service.engine().wal_synced_seq();
        drop(service);
        self.storage_p.crash(&mut self.crash_rng);
        let (monitor, stats) =
            match recover_in(&*self.storage_p, Path::new(PRIMARY_DIR), Some(&fallback())) {
                Ok(recovered) => recovered,
                Err(e) => {
                    self.violation(format!("primary recovery failed: {e}"));
                    return;
                }
            };
        let floor = stats.next_seq - 1;
        self.ledger.invariant_checks += 1;
        if floor < synced_floor {
            self.violation(format!(
                "primary recovery lost durable records: reached seq {floor}, \
                 but seq {synced_floor} was fsynced"
            ));
            return;
        }
        if self.config.primary_sync == SyncPolicy::Always {
            self.ledger.invariant_checks += 1;
            if let Some(lost) = self.ledger.oplog.iter().find(|e| e.acked && e.seq > floor) {
                self.violation(format!(
                    "acked mutation lost under sync=always: seq {} {:?}",
                    lost.seq, lost.line
                ));
                return;
            }
        }
        // The durable-floor shipping cap: nothing the replica holds may
        // exceed what the primary recovered to — otherwise the two have
        // diverged histories.
        self.ledger.invariant_checks += 1;
        if self.replica.applied_seq() > floor {
            self.violation(format!(
                "replica is ahead of the recovered primary: applied {} > recovered {floor} \
                 (an unsynced record was shipped)",
                self.replica.applied_seq()
            ));
            return;
        }
        self.ledger.oplog.retain(|e| e.seq <= floor);
        self.ledger.invariant_checks += 1;
        let Some(reference) = self.fold(floor) else {
            return;
        };
        if reference.snapshot_bytes() != monitor.snapshot_bytes() {
            self.violation(format!(
                "recovered primary diverges from its acknowledged prefix at seq {floor}"
            ));
            return;
        }
        self.ledger.mirror = reference;
        let sharded = ShardedMonitor::from_monitor(monitor, self.config.n_shards);
        let engine = match Engine::open_in(
            sharded,
            None,
            Some(&self.pcfg),
            stats.log_end(),
            Arc::clone(&self.storage_p) as Arc<dyn Storage>,
            Arc::clone(&self.clock) as Arc<dyn attrition_serve::Clock>,
        ) {
            Ok(engine) => engine,
            Err(e) => {
                self.violation(format!("primary reopen failed: {e}"));
                return;
            }
        };
        match PrimaryService::open_in(
            Arc::new(engine),
            Arc::clone(&self.storage_p) as Arc<dyn Storage>,
            Path::new(PRIMARY_DIR),
        ) {
            Ok(primary) => self.primary = Some(primary),
            Err(e) => self.violation(format!("primary service reopen failed: {e}")),
        }
    }

    /// Crash and recover the replica (pre-promotion): its recovered LSN
    /// must hold its own durability floor *and* the R1 ack floor.
    fn restart_replica(&mut self) {
        self.replica_crashes += 1;
        let live = self.replica.engine().monitor().snapshot_bytes();
        if !self.live_holds("the replica", &live, self.replica.applied_seq()) {
            return;
        }
        let synced_floor = self.replica.durable_seq();
        self.storage_r.crash(&mut self.crash_rng);
        let (replica, stats) = match ReplicaEngine::open_in(
            self.rcfg.clone(),
            Arc::clone(&self.storage_r) as Arc<dyn Storage>,
            Arc::clone(&self.clock) as Arc<dyn attrition_serve::Clock>,
        ) {
            Ok(opened) => opened,
            Err(e) => {
                self.violation(format!("replica recovery failed: {e}"));
                return;
            }
        };
        self.replica = replica;
        let floor = stats.next_seq - 1;
        self.ledger.invariant_checks += 1;
        if floor < synced_floor {
            self.violation(format!(
                "replica recovery lost durable records: reached seq {floor}, \
                 but seq {synced_floor} was fsynced"
            ));
            return;
        }
        self.ledger.invariant_checks += 1;
        if floor < self.repl_acked {
            self.violation(format!(
                "R1 violated on replica recovery: recovered to {floor}, but LSN {} \
                 was acked durable upstream",
                self.repl_acked
            ));
            return;
        }
        self.check_replica_state("after replica recovery");
    }

    /// Crash and recover the *promoted* node, then re-promote it (a
    /// restarted primary-by-takeover bumps the epoch again).
    fn restart_active(&mut self) {
        self.replica_crashes += 1;
        let live = self.replica.engine().monitor().snapshot_bytes();
        if !self.live_holds("the promoted node", &live, u64::MAX) {
            return;
        }
        let synced_floor = self.replica.durable_seq();
        self.storage_r.crash(&mut self.crash_rng);
        let (replica, stats) = match ReplicaEngine::open_in(
            self.rcfg.clone(),
            Arc::clone(&self.storage_r) as Arc<dyn Storage>,
            Arc::clone(&self.clock) as Arc<dyn attrition_serve::Clock>,
        ) {
            Ok(opened) => opened,
            Err(e) => {
                self.violation(format!("promoted-node recovery failed: {e}"));
                return;
            }
        };
        self.replica = replica;
        let floor = stats.next_seq - 1;
        self.ledger.invariant_checks += 1;
        if floor < synced_floor {
            self.violation(format!(
                "promoted-node recovery lost durable records: reached seq {floor}, \
                 but seq {synced_floor} was fsynced"
            ));
            return;
        }
        if self.config.replica_sync == SyncPolicy::Always {
            self.ledger.invariant_checks += 1;
            if let Some(lost) = self.ledger.oplog.iter().find(|e| e.acked && e.seq > floor) {
                self.violation(format!(
                    "acked mutation lost on the promoted node under sync=always: seq {} {:?}",
                    lost.seq, lost.line
                ));
                return;
            }
        }
        self.ledger.oplog.retain(|e| e.seq <= floor);
        self.ledger.invariant_checks += 1;
        let Some(reference) = self.fold(floor) else {
            return;
        };
        if reference.snapshot_bytes() != self.replica.engine().monitor().snapshot_bytes() {
            self.violation(format!(
                "recovered promoted node diverges from its acknowledged prefix at seq {floor}"
            ));
            return;
        }
        self.ledger.mirror = reference;
        let Some(repl_mirror) = self.fold(floor) else {
            return;
        };
        self.repl_mirror = repl_mirror;
        self.repl_mirror_seq = floor;
        match self.replica.promote() {
            Ok((epoch, lsn)) => {
                self.promoted_epoch = epoch;
                self.ledger.invariant_checks += 1;
                if lsn != floor {
                    self.violation(format!(
                        "re-promotion LSN {lsn} does not match the recovered floor {floor}"
                    ));
                }
            }
            Err(e) => self.violation(format!("re-promotion failed: {e}")),
        }
    }

    /// The failover: the primary dies, the replica is promoted at its
    /// durable LSN (R1), the new timeline disowns everything above it,
    /// and the dead primary's in-flight shipments surface against the
    /// fence.
    fn failover(&mut self) {
        self.failovers += 1;
        if let Some(primary) = self.primary.take() {
            let live = primary.engine().monitor().snapshot_bytes();
            if !self.live_holds("the primary", &live, u64::MAX) {
                return;
            }
            self.storage_p.crash(&mut self.crash_rng);
        }
        let (_verb, mut response) = self.replica.respond("PROMOTE");
        if response.starts_with("ERR") && self.replica.engine().wal_crashed() {
            // The promotion's fsync failed and killed the replica's WAL:
            // restart the node and promote what recovery found.
            self.restart_replica();
            if !self.violations.is_empty() {
                return;
            }
            response = self.replica.respond("PROMOTE").1;
        }
        let mut parts = response.split_ascii_whitespace();
        let (epoch, lsn) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("OK"), Some("promoted"), Some(e), Some(l)) => {
                match (e.parse::<u64>(), l.parse::<u64>()) {
                    (Ok(e), Ok(l)) => (e, l),
                    _ => {
                        self.violation(format!("unparseable PROMOTE response: {response:?}"));
                        return;
                    }
                }
            }
            _ => {
                self.violation(format!("PROMOTE failed: {response:?}"));
                return;
            }
        };
        self.promoted_epoch = epoch;
        self.promotion_lsn = lsn;
        // The generation the dead primary lived in: a promotion bumps
        // its epoch by one, so this is what its disk still says. The
        // rejoin phase is "current" only once it has adopted past it.
        self.deposed_epoch = epoch - 1;
        // Invariant R1: the takeover point covers every LSN whose
        // durability was acknowledged to the old primary.
        self.ledger.invariant_checks += 1;
        if lsn < self.repl_acked {
            self.violation(format!(
                "R1 violated: promoted at LSN {lsn}, below the acked-durable LSN {}",
                self.repl_acked
            ));
            return;
        }
        // The new timeline: records above the takeover LSN died with
        // the old primary.
        self.ledger.oplog.retain(|e| e.seq <= lsn);
        let (Some(mirror), Some(repl_mirror)) = (self.fold(lsn), self.fold(lsn)) else {
            return;
        };
        self.ledger.mirror = mirror;
        self.repl_mirror = repl_mirror;
        self.repl_mirror_seq = lsn;
        // Invariant R2 at the promotion point.
        let engine = self.replica.engine();
        self.ledger.invariant_checks += 1;
        if engine.monitor().snapshot_bytes() != self.ledger.mirror.snapshot_bytes() {
            self.violation(format!(
                "R2 violated at promotion: state at LSN {lsn} is not byte-equal to the \
                 surviving log prefix"
            ));
            return;
        }
        self.promoted = true;
        // Requests toward the dead primary evaporate; its already-sent
        // responses can still land — *after* the epoch bump, so the
        // fence must reject every one of them.
        self.net_req.clear();
        for flight in self.net_resp.drain_all() {
            self.apply_wire(&flight.payload);
            if !self.violations.is_empty() {
                break;
            }
        }
    }

    /// Reopen the deposed primary's crashed disk as a replica. Its WAL
    /// still holds everything it wrote — including the suffix the new
    /// timeline disowned — and its epoch file still says the old
    /// generation: the handshake has to find and fix both.
    fn start_rejoin(&mut self) {
        match ReplicaEngine::open_in(
            self.rjcfg.clone(),
            Arc::clone(&self.storage_p) as Arc<dyn Storage>,
            Arc::clone(&self.clock) as Arc<dyn attrition_serve::Clock>,
        ) {
            Ok((engine, _stats)) => {
                self.rejoined = Some(Arc::new(engine));
                self.rj_current = false;
                self.rj_handshake = true;
                self.rj_mirror = fresh_monitor();
                self.rj_mirror_seq = 0;
            }
            Err(e) => self.violation(format!("deposed-primary reopen as a replica failed: {e}")),
        }
    }

    /// One rejoiner round: handshake or fetch toward the new primary
    /// over its own lossy link directions, then apply whatever lands.
    fn rejoin_round(&mut self) {
        let Some(rj) = self.rejoined.as_ref().map(Arc::clone) else {
            return;
        };
        self.net_req2.tick();
        self.net_resp2.tick();
        let line = if self.rj_handshake {
            RejoinRequest {
                epoch: rj.epoch(),
                durable: rj.durable_seq(),
            }
            .to_line()
        } else {
            rj.fetch_request(self.config.batch_max).to_line()
        };
        self.net_req2.send(line, 0);
        for flight in self.net_req2.deliver_due() {
            let (_verb, response) = self.replica.respond(&flight.payload);
            self.net_resp2.send(response, 0);
        }
        for flight in self.net_resp2.deliver_due() {
            self.apply_rejoin_wire(&rj, &flight.payload);
            if !self.violations.is_empty() {
                break;
            }
        }
    }

    /// Hand one wire response to the rejoining node — `RJOIN` runs the
    /// discard rule, shipments apply, fences and rejoin-required errors
    /// re-arm the handshake (exactly what the production fetch loop
    /// does on those errors).
    fn apply_rejoin_wire(&mut self, rj: &Arc<ReplicaEngine>, text: &str) {
        if text.starts_with("ERR") {
            if text.contains("fenced") {
                self.fenced += 1;
                self.rj_handshake = true;
            } else {
                self.repl_errors += 1;
            }
            return;
        }
        // A handshake answer — possibly a delayed duplicate, which the
        // discard rule no-ops (epoch not newer than our own).
        if let Ok(resp) = RejoinResponse::parse(text) {
            match rj.rejoin_to(resp.epoch, resp.promotion_lsn) {
                Ok(outcome) => {
                    if outcome.adopted {
                        self.rejoins += 1;
                        if outcome.discarded {
                            self.divergent_discarded += outcome.divergent_records;
                        }
                        self.rj_current = rj.epoch() > self.deposed_epoch;
                        self.check_rejoined_state(rj, "after a rejoin adoption");
                    }
                    self.rj_handshake = false;
                }
                Err(e) => self.violation(format!("rejoin_to failed: {e}")),
            }
            return;
        }
        let resp = match FetchResponse::parse(text) {
            Ok(resp) => resp,
            Err(e) => {
                self.violation(format!(
                    "unparseable rejoin shipment: {e} (payload {text:?})"
                ));
                return;
            }
        };
        match rj.apply_response(&resp) {
            Ok(applied) => {
                self.batches_applied += 1;
                self.rejoin_records += applied.fresh;
                self.records_skipped += applied.skipped;
                if applied.snapshot_installed {
                    self.snapshots_installed += 1;
                }
                if applied.fresh > 0 || applied.snapshot_installed {
                    self.check_rejoined_state(rj, "after a rejoin shipment");
                }
            }
            Err(e) if e.contains("rejoin required") => {
                self.repl_errors += 1;
                self.rj_handshake = true;
            }
            Err(e) if e.contains("fenced") => self.fenced += 1,
            Err(_) => self.repl_errors += 1,
        }
    }

    /// Invariant R3 at the rejoined node's applied LSN: once current,
    /// its snapshot must byte-equal a reference folded over exactly the
    /// new timeline's log prefix — a surviving divergent record breaks
    /// this — plus a `SCORE` bit-identity probe.
    fn check_rejoined_state(&mut self, rj: &Arc<ReplicaEngine>, context: &str) {
        if !self.rj_current {
            // Still on the deposed timeline (or mid-discard after a
            // crash): its state legitimately contains divergent
            // records, so the fold comparison would be meaningless.
            return;
        }
        let applied = rj.applied_seq();
        if applied < self.rj_mirror_seq {
            self.rj_mirror = fresh_monitor();
            self.rj_mirror_seq = 0;
        }
        if let Err(e) = self
            .ledger
            .fold_into(&mut self.rj_mirror, self.rj_mirror_seq, applied)
        {
            self.violation(e);
            return;
        }
        self.rj_mirror_seq = applied;
        self.ledger.invariant_checks += 1;
        if rj.engine().monitor().snapshot_bytes() != self.rj_mirror.snapshot_bytes() {
            self.violation(format!(
                "R3 violated {context}: rejoined-node state at LSN {applied} is not \
                 byte-equal to the new primary's log prefix (a divergent record survived?)"
            ));
            return;
        }
        self.ledger.score_checks += 1;
        self.ledger.invariant_checks += 1;
        let customer = CustomerId::new(1 + self.transport_rng.below(self.config.n_customers));
        let (_verb, response) = rj.respond(&Request::Score(customer).to_line());
        let expected = match self.rj_mirror.preview(customer) {
            Some(point) => format_score(customer, &point),
            None => format!("ERR unknown customer {}", customer.raw()),
        };
        if response != expected {
            self.violation(format!(
                "rejoined-node SCORE diverged at LSN {applied}: got {response:?}, \
                 expected {expected:?}"
            ));
        }
    }

    /// Crash and recover the rejoining node. A crash can land after the
    /// discard but before the epoch adoption reached disk — recovery
    /// then resurfaces the *old* epoch and the handshake simply re-runs.
    fn restart_rejoined(&mut self) {
        let Some(rj) = self.rejoined.take() else {
            return;
        };
        self.rejoined_crashes += 1;
        // Off the new timeline until it adopts it: its divergent records
        // are in no ledger, so only a current node has a live leg.
        if self.rj_current {
            let live = rj.engine().monitor().snapshot_bytes();
            if !self.live_holds("the rejoined node", &live, rj.applied_seq()) {
                return;
            }
        }
        let synced_floor = rj.durable_seq();
        drop(rj);
        self.storage_p.crash(&mut self.crash_rng);
        let (engine, stats) = match ReplicaEngine::open_in(
            self.rjcfg.clone(),
            Arc::clone(&self.storage_p) as Arc<dyn Storage>,
            Arc::clone(&self.clock) as Arc<dyn attrition_serve::Clock>,
        ) {
            Ok(opened) => opened,
            Err(e) => {
                self.violation(format!("rejoined-node recovery failed: {e}"));
                return;
            }
        };
        let engine = Arc::new(engine);
        let floor = stats.next_seq - 1;
        self.ledger.invariant_checks += 1;
        if floor < synced_floor {
            self.violation(format!(
                "rejoined-node recovery lost durable records: reached seq {floor}, \
                 but seq {synced_floor} was fsynced"
            ));
            self.rejoined = Some(engine);
            return;
        }
        // Whether the adopted epoch survived the crash decides whether
        // R3 applies and whether a handshake is needed again.
        self.rj_current = engine.epoch() > self.deposed_epoch;
        self.rj_handshake = !self.rj_current;
        self.rejoined = Some(Arc::clone(&engine));
        if self.rj_current {
            self.check_rejoined_state(&engine, "after rejoined-node recovery");
        }
    }

    /// The scripted rejoin phase: the promoted node keeps serving real
    /// traffic while the deposed primary heals in beside it, with both
    /// nodes still crashing and the link still lying.
    fn run_rejoin_phase(&mut self) {
        self.start_rejoin();
        let mut rng = SplitMix64::new(self.config.seed ^ 0x3077_0AD5_0000_0018);
        let month = (self.config.n_ops / OPS_PER_MONTH) as i32 + 1;
        for _ in 0..self.config.rejoin_ops {
            if !self.violations.is_empty() {
                return;
            }
            self.clock
                .advance(Duration::from_millis(1 + self.transport_rng.below(40)));
            let line = scripted_op(&mut rng, month, self.config.n_customers);
            self.deliver(&[line]);
            self.rejoin_round();
            if self.violations.is_empty() {
                self.restart_dead_nodes();
            }
            if !self.violations.is_empty() {
                return;
            }
            if self.config.faults.crash_now(&mut self.crash_rng) {
                self.restart_rejoined();
            } else if self.crash_rng.per_mille(8) {
                self.restart_active();
            }
        }
        if self.violations.is_empty() {
            self.drain_rejoin();
        }
    }

    /// End of the rejoin phase: the network heals (direct respond/apply,
    /// no SimNet) and the rejoined node must fully converge — caught up
    /// to the new primary's durable floor and its binary snapshot
    /// byte-equal to the new primary's at the same LSN.
    fn drain_rejoin(&mut self) {
        if self.replica.engine().sync_wal().is_err() {
            // The fsync killed the promoted node's WAL: restart it, which
            // leaves nothing unsynced.
            self.restart_active();
            if !self.violations.is_empty() {
                return;
            }
        }
        let target = self.replica.engine().wal_synced_seq();
        for _ in 0..200 {
            // A rejoiner whose WAL died while applying is restarted, so
            // the node to talk to is looked up each round.
            let Some(rj) = self.rejoined.as_ref().map(Arc::clone) else {
                break;
            };
            if self.rj_current && rj.applied_seq() >= target {
                break;
            }
            let line = if self.rj_handshake {
                RejoinRequest {
                    epoch: rj.epoch(),
                    durable: rj.durable_seq(),
                }
                .to_line()
            } else {
                rj.fetch_request(self.config.batch_max).to_line()
            };
            let (_verb, response) = self.replica.respond(&line);
            self.apply_rejoin_wire(&rj, &response);
            if self.violations.is_empty() {
                self.restart_dead_nodes();
            }
            if !self.violations.is_empty() {
                return;
            }
        }
        let Some(rj) = self.rejoined.as_ref().map(Arc::clone) else {
            self.violation("the rejoin phase ended without a rejoined node".to_owned());
            return;
        };
        self.ledger.invariant_checks += 1;
        if !self.rj_current || rj.applied_seq() < target {
            self.violation(format!(
                "the rejoined node failed to converge on a healed network: applied {} \
                 of {target}, current={}",
                rj.applied_seq(),
                self.rj_current
            ));
            return;
        }
        self.check_rejoined_state(&rj, "at the end of the rejoin phase");
        if !self.violations.is_empty() {
            return;
        }
        // R3 head-to-head: both nodes stand at the same LSN now, so
        // their snapshots must match byte for byte — no reference fold
        // in between.
        self.ledger.invariant_checks += 1;
        if rj.engine().monitor().snapshot_bytes()
            != self.replica.engine().monitor().snapshot_bytes()
        {
            self.violation(format!(
                "R3 violated at drain: rejoined node and new primary differ at LSN {target}"
            ));
        }
    }

    fn run(mut self) -> ReplReport {
        let mut script_rng = SplitMix64::new(self.config.seed ^ 0x3077_0AD5_0000_0013);
        let mut pending =
            script_frames(&mut script_rng, self.config.n_ops, self.config.n_customers);
        while let Some(frame) = pending.pop_front() {
            if !self.violations.is_empty() {
                break;
            }
            self.clock
                .advance(Duration::from_millis(1 + self.transport_rng.below(40)));
            self.deliver(&frame);
            if !self.promoted {
                self.repl_round();
            }
            if self.violations.is_empty() {
                self.restart_dead_nodes();
            }
            if !self.violations.is_empty() {
                break;
            }
            if !self.promoted && self.config.faults.crash_now(&mut self.crash_rng) {
                self.restart_primary();
            } else if self.crash_rng.per_mille(8) {
                if self.promoted {
                    self.restart_active();
                } else {
                    self.restart_replica();
                }
            } else if !self.promoted && self.crash_rng.per_mille(6) {
                self.failover();
            }
        }
        // Every run ends in a failover: losing the primary forever is
        // the scenario the subsystem exists for.
        if self.violations.is_empty() && !self.promoted {
            self.failover();
        }
        // The promoted node must actually serve: a deterministic coda
        // of writes and reads against it.
        if self.violations.is_empty() {
            for line in self.coda() {
                self.deliver(&[line]);
                if self.violations.is_empty() {
                    self.restart_dead_nodes();
                }
                if !self.violations.is_empty() {
                    break;
                }
            }
        }
        // The deposed primary comes back from the dead and must heal in
        // as a replica of the new generation (invariant R3).
        if self.violations.is_empty() && self.config.rejoin_phase {
            self.run_rejoin_phase();
        }
        // And the takeover state must itself survive power loss.
        if self.violations.is_empty() {
            self.restart_active();
        }
        let req_stats = self.net_req.stats();
        let resp_stats = self.net_resp.stats();
        let rj_req_stats = self.net_req2.stats();
        let rj_resp_stats = self.net_resp2.stats();
        ReplReport {
            seed: self.config.seed,
            ops: self.ledger.ops,
            wal_records: self.ledger.wal_records,
            batches_applied: self.batches_applied,
            records_replicated: self.records_replicated,
            records_skipped: self.records_skipped,
            snapshots_installed: self.snapshots_installed,
            fenced: self.fenced,
            repl_errors: self.repl_errors,
            primary_crashes: self.primary_crashes,
            replica_crashes: self.replica_crashes,
            failovers: self.failovers,
            promoted_epoch: self.promoted_epoch,
            promotion_lsn: self.promotion_lsn,
            partitions: req_stats.partitions
                + resp_stats.partitions
                + rj_req_stats.partitions
                + rj_resp_stats.partitions,
            transport_faults: req_stats.faults()
                + resp_stats.faults()
                + rj_req_stats.faults()
                + rj_resp_stats.faults(),
            score_checks: self.ledger.score_checks,
            rejoin_phase: self.config.rejoin_phase,
            rejoins: self.rejoins,
            divergent_records_discarded: self.divergent_discarded,
            rejoin_records_applied: self.rejoin_records,
            rejoined_crashes: self.rejoined_crashes,
            invariant_checks: self.ledger.invariant_checks,
            violations: self.violations,
        }
    }
}

/// Run one replicated world to completion. [`ReplReport::assert_ok`]
/// turns a failure into a panic carrying the seed and repro command.
pub fn run_repl(config: &ReplSimConfig) -> ReplReport {
    ReplSim::new(config.clone()).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_world_replicates_fails_over_and_serves() {
        let config = ReplSimConfig {
            faults: FaultPlan::none(),
            partition_per_mille: 0,
            ..ReplSimConfig::for_seed(0)
        };
        let report = run_repl(&config);
        report.assert_ok();
        assert_eq!(report.failovers, 1, "{report:?}");
        assert!(report.records_replicated > 0, "{report:?}");
        assert!(report.promoted_epoch >= 2, "{report:?}");
        assert!(
            report.ops > config.n_ops,
            "the coda must run against the promoted node: {report:?}"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_repl(&ReplSimConfig::for_seed(9));
        let b = run_repl(&ReplSimConfig::for_seed(9));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = run_repl(&ReplSimConfig::for_seed(10));
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "seed must matter");
    }

    #[test]
    fn the_sweep_shape_is_a_pure_function_of_the_seed() {
        // The repro command carries only the seed, so every knob must
        // re-derive from it, and nearby seeds must cover both sync
        // policies and both batch sizes.
        let configs: Vec<ReplSimConfig> = (0..16).map(ReplSimConfig::for_seed).collect();
        assert!(configs.iter().any(|c| c.primary_sync == SyncPolicy::Always));
        assert!(configs.iter().any(|c| c.primary_sync != SyncPolicy::Always));
        assert!(configs.iter().any(|c| c.batch_max == 5));
        assert!(configs.iter().any(|c| c.batch_max == 64));
    }

    #[test]
    fn repro_command_names_the_public_test() {
        assert_eq!(
            repro_repl_command(7),
            "ATTRITION_REPL_SEED=7 cargo test -p attrition-sim --test repl repro_repl_seed -- --nocapture"
        );
    }
}
