//! The replication sweep: many seeded replicated worlds under full
//! fault schedules (message drops/dups/reorders, partitions, disk
//! faults, crashes of either node, seeded and mandatory failovers), and
//! a self-test proving the sweep catches a re-introduced stale-epoch
//! bug.
//!
//! `ATTRITION_SIM_SEEDS=N` resizes the local sweep. Reproduce any
//! failing seed with:
//!
//! ```text
//! ATTRITION_REPL_SEED=<seed> cargo test -p attrition-sim --test repl repro_repl_seed -- --nocapture
//! ```

use attrition_serve::{FaultPlan, LogEnd, SyncPolicy};
use attrition_sim::{repro_repl_command, run_repl, ReplSimBug, ReplSimConfig};

fn sweep_seeds() -> u64 {
    std::env::var("ATTRITION_SIM_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Seeded replicated worlds with every fault class enabled; R1 and R2
/// must hold after every applied shipment, every recovery of either
/// node, and at every promotion. This is the tier the CI `repl-sweep`
/// job runs on every push.
#[test]
fn repl_sweep_under_full_fault_schedules() {
    let seeds = sweep_seeds();
    let mut failovers = 0u64;
    let mut replicated = 0u64;
    let mut fenced = 0u64;
    let mut snapshots = 0u64;
    let mut partitions = 0u64;
    let mut invariant_checks = 0u64;
    for seed in 0..seeds {
        let report = run_repl(&ReplSimConfig::for_seed(seed));
        report.assert_ok();
        failovers += report.failovers;
        replicated += report.records_replicated;
        fenced += report.fenced;
        snapshots += report.snapshots_installed;
        partitions += report.partitions;
        invariant_checks += report.invariant_checks;
    }
    // The sweep must exercise the machinery, not vacuously pass.
    assert!(failovers >= seeds, "every run ends in a failover");
    assert!(
        replicated > seeds * 20,
        "too few records replicated: {replicated}"
    );
    assert!(
        invariant_checks > seeds * 50,
        "too few invariant checks: {invariant_checks}"
    );
    if seeds >= 64 {
        assert!(fenced > 0, "no stale shipment ever hit the fence");
        assert!(partitions > 0, "no partition window ever opened");
        assert!(
            snapshots > 0,
            "no replica ever bootstrapped from a shipped snapshot"
        );
    }
}

/// The sweep must *fail* when the protocol is broken: disable the epoch
/// fence (the replica applies a dead primary's in-flight shipments
/// after promotion) and demand an R2 violation with a reproducible seed
/// within a small sweep.
#[test]
fn stale_epoch_bug_is_caught_with_a_printed_seed() {
    let mut caught = None;
    for seed in 0..32 {
        let report = run_repl(&ReplSimConfig::with_bug(seed, ReplSimBug::AcceptStaleEpoch));
        if !report.passed() {
            println!(
                "seed {seed} caught the bug: {}\n  repro: {}",
                report.violations[0],
                repro_repl_command(seed)
            );
            caught = Some((seed, report));
            break;
        }
    }
    let (seed, report) = caught.expect(
        "AcceptStaleEpoch survived 32 seeds — the sweep cannot catch stale-epoch divergence",
    );
    assert!(
        report.violations[0].contains("R2") || report.violations[0].contains("diverged"),
        "the violation should be a divergence: {:?}",
        report.violations
    );
    // The seed is a faithful repro: the same world replays the same
    // violation, bit for bit.
    let again = run_repl(&ReplSimConfig::with_bug(seed, ReplSimBug::AcceptStaleEpoch));
    assert_eq!(report.violations, again.violations);
}

/// The sweep must also catch a primary that runs a frame's members one
/// at a time (the `Service` trait's old member-by-member default): the
/// world scripts `BATCH` frames, and under `sync=always` a frame that
/// commits anything must pay exactly one fsync. Demand that violation
/// with a reproducible seed within a small sweep.
#[test]
fn member_by_member_frames_are_caught_with_a_printed_seed() {
    let mut caught = None;
    for seed in 0..32 {
        let config = ReplSimConfig::with_bug(seed, ReplSimBug::MemberByMemberFrames);
        let report = run_repl(&config);
        if !report.passed() {
            println!(
                "seed {seed} caught the bug: {}\n  repro: {}",
                report.violations[0],
                repro_repl_command(seed)
            );
            caught = Some((seed, report));
            break;
        }
    }
    let (seed, report) = caught.expect(
        "MemberByMemberFrames survived 32 seeds — the sweep cannot see one fsync per member",
    );
    assert!(
        report.violations[0].contains("fsyncs under sync=always"),
        "the violation should be the per-frame fsync count: {:?}",
        report.violations
    );
    let again = run_repl(&ReplSimConfig::with_bug(
        seed,
        ReplSimBug::MemberByMemberFrames,
    ));
    assert_eq!(report.violations, again.violations);
}

/// The same stale-epoch scenario, scripted deterministically (no seeds,
/// no sweep): a batch fetched from the primary is still in flight when
/// the replica is promoted. With the fence on it must be rejected; with
/// the fence off it lands — records the new timeline disowned.
#[test]
fn scripted_stale_shipment_is_fenced_and_the_bug_applies_it() {
    use attrition_core::StabilityParams;
    use attrition_replica::{FetchResponse, PrimaryService, ReplicaConfig, ReplicaEngine};
    use attrition_serve::checkpoint::CheckpointFormat;
    use attrition_serve::engine::DurabilityConfig;
    use attrition_serve::recovery::Fallback;
    use attrition_serve::shard::ShardedMonitor;
    use attrition_serve::{Engine, Service, Storage};
    use attrition_sim::{SimClock, SimStorage};
    use attrition_store::WindowSpec;
    use attrition_types::Date;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    let origin = Date::from_ymd(2012, 5, 1).unwrap();
    let fallback = Fallback {
        spec: WindowSpec::months(origin, 1),
        params: StabilityParams::PAPER,
        max_explanations: 5,
    };

    // Each scenario is its own little world; `fence` toggles the bug.
    let run_scenario = |fence: bool| -> (Result<attrition_replica::Applied, String>, String) {
        let storage_p: Arc<SimStorage> = Arc::new(SimStorage::new());
        let storage_r: Arc<SimStorage> = Arc::new(SimStorage::new());
        let clock = Arc::new(SimClock::new());
        let pdir = Path::new("/sim/primary");
        let pcfg = DurabilityConfig {
            wal_dir: PathBuf::from(pdir),
            sync_policy: SyncPolicy::Always,
            checkpoint_every_requests: 0,
            checkpoint_every: None,
            keep_checkpoints: 2,
            checkpoint_format: CheckpointFormat::Binary,
            fault_plan: None,
        };
        let monitor = ShardedMonitor::new(2, fallback.spec, StabilityParams::PAPER, 5);
        let engine = Engine::open_in(
            monitor,
            None,
            Some(&pcfg),
            LogEnd::EMPTY,
            Arc::clone(&storage_p) as Arc<dyn Storage>,
            clock.clone(),
        )
        .unwrap();
        let primary = PrimaryService::open_in(
            Arc::new(engine),
            Arc::clone(&storage_p) as Arc<dyn Storage>,
            pdir,
        )
        .unwrap();
        for day in 2..=7 {
            let (_verb, resp) = primary.respond(&format!("INGEST 1 2012-05-0{day} 10 11"));
            assert!(resp.starts_with("OK"), "{resp}");
        }

        let rcfg = ReplicaConfig {
            accept_stale_epoch: !fence,
            ..ReplicaConfig::new("/sim/replica", fallback)
        };
        let (replica, _stats) = ReplicaEngine::open_in(
            rcfg,
            Arc::clone(&storage_r) as Arc<dyn Storage>,
            clock.clone(),
        )
        .unwrap();

        // Ship the first three records and apply them.
        let (_verb, resp) = primary.respond(&replica.fetch_request(3).to_line());
        let applied = replica
            .apply_response(&FetchResponse::parse(&resp).unwrap())
            .unwrap();
        assert_eq!(applied.applied_seq, 3);

        // Fetch the tail — but leave it in flight.
        let (_verb, stale_text) = primary.respond(&replica.fetch_request(10).to_line());
        let stale = FetchResponse::parse(&stale_text).unwrap();
        assert_eq!(stale.epoch(), 1);

        // The primary dies; the replica takes over at LSN 3, epoch 2.
        let (_verb, promoted) = replica.respond("PROMOTE");
        assert_eq!(promoted, "OK promoted 2 3");
        let before = replica.engine().monitor().snapshot();

        // Now the in-flight epoch-1 shipment (records 4..=6, above the
        // takeover LSN) lands.
        (replica.apply_response(&stale), {
            let after = replica.engine().monitor().snapshot();
            if after == before {
                "unchanged".into()
            } else {
                "mutated".into()
            }
        })
    };

    let (fenced, state) = run_scenario(true);
    let err = fenced.expect_err("the fence must reject a stale-epoch shipment");
    assert!(err.contains("fenced"), "{err}");
    assert_eq!(
        state, "unchanged",
        "a fenced shipment must not mutate state"
    );

    let (accepted, state) = run_scenario(false);
    let applied = accepted.expect("with the fence disabled the stale shipment applies");
    assert_eq!(applied.fresh, 3, "records 4..=6 land on the wrong timeline");
    assert_eq!(state, "mutated", "the divergence R2 exists to catch");
}

/// The replay hook the repro command targets: runs the standard sweep
/// configuration for `ATTRITION_REPL_SEED`, printing the full report.
/// Without the variable set it is a no-op (so plain `cargo test`
/// passes).
#[test]
fn repro_repl_seed() {
    let Ok(seed) = std::env::var("ATTRITION_REPL_SEED") else {
        return;
    };
    let seed: u64 = seed
        .parse()
        .expect("ATTRITION_REPL_SEED must be an unsigned 64-bit integer");
    let report = run_repl(&ReplSimConfig::for_seed(seed));
    println!("{report:#?}");
    report.assert_ok();
}

/// Replica sync policy shapes the ack floor: keep both policies in the
/// sweep's low seeds so R1 is tested where acks lag reality.
#[test]
fn sweep_covers_lagging_ack_floors() {
    let lagging = (0..8).any(|s| ReplSimConfig::for_seed(s).replica_sync != SyncPolicy::Always);
    let tight = (0..8).any(|s| ReplSimConfig::for_seed(s).replica_sync == SyncPolicy::Always);
    assert!(lagging && tight);
    // And the bug configuration keeps the full fault schedule running.
    let bug = ReplSimConfig::with_bug(0, ReplSimBug::AcceptStaleEpoch);
    assert!(bug.faults.drop_per_mille > 0);
    assert_eq!(
        FaultPlan::seeded(0).crash_per_mille,
        bug.faults.crash_per_mille
    );
}
