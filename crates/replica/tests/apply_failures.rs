//! A replica whose own WAL fails stops, and a restart catches it up.
//!
//! A failed fsync is never retried: the shipped records it was meant to
//! make durable are in the replica's log and applied, but not durable,
//! and the WAL is dead. The replica must stop applying and ask to shut
//! down; its live state is the fold of its log, so recovering the
//! directory reproduces it. Reopened on that directory, the replica
//! fetches from where its log ends — after which its `SCORE`s and its
//! snapshot equal the primary's.

use attrition_core::StabilityParams;
use attrition_replica::{FetchResponse, PrimaryService, ReplicaConfig, ReplicaEngine};
use attrition_serve::checkpoint::{self, CheckpointFormat};
use attrition_serve::recovery::{recover, Fallback};
use attrition_serve::{DurabilityConfig, Engine, FaultPlan, Service, ShardedMonitor, SyncPolicy};
use attrition_store::WindowSpec;
use attrition_types::Date;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("attrition_repl_apply_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fallback() -> Fallback {
    Fallback {
        spec: WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1),
        params: StabilityParams::PAPER,
        max_explanations: 5,
    }
}

#[test]
fn a_failed_replica_sync_is_rebuilt_from_its_log_not_skipped() {
    restarted_after_a_failed_sync("plain", None);
}

/// The failed sync lands in a shipment that also makes a periodic
/// checkpoint due (every fetch of 4 records crosses the count). The dead
/// WAL must not checkpoint: the records would then exist only in a
/// checkpoint cut from a monitor nobody acked, and the truncation would
/// drop them from the log the restart reads.
#[test]
fn a_failed_replica_sync_does_not_trigger_a_checkpoint_that_skips_it() {
    restarted_after_a_failed_sync("checkpointing", Some(4));
}

/// `replica_checkpoint_every` overrides the replica's default count
/// trigger.
fn restarted_after_a_failed_sync(tag: &str, replica_checkpoint_every: Option<u64>) {
    let pdir = temp_dir(&format!("{tag}_primary"));
    let rdir = temp_dir(&format!("{tag}_replica"));
    let dcfg = DurabilityConfig {
        checkpoint_every_requests: 0,
        checkpoint_every: None,
        checkpoint_format: CheckpointFormat::Binary,
        ..DurabilityConfig::new(&pdir)
    };
    let monitor = ShardedMonitor::new(2, fallback().spec, StabilityParams::PAPER, 5);
    let engine = Arc::new(Engine::open(monitor, None, Some(&dcfg), 1).unwrap());
    let primary = PrimaryService::open(engine, &pdir).unwrap();
    // Three customers over three months: record 1 opens customer 1's
    // history, so losing it changes every later score of theirs.
    let mut lines = Vec::new();
    for month in 5..=7 {
        for customer in 1..=3u32 {
            lines.push(format!(
                "INGEST {customer} 2012-{month:02}-0{customer} {} {}",
                10 + customer,
                month * 7 + customer
            ));
        }
    }
    for line in &lines {
        let (_verb, resp) = primary.respond(line);
        assert!(resp.starts_with("OK"), "{resp}");
    }

    let mut rcfg = ReplicaConfig {
        n_shards: 2,
        ..ReplicaConfig::new(&rdir, fallback())
    };
    rcfg.durability.sync_policy = SyncPolicy::Always;
    if let Some(every) = replica_checkpoint_every {
        rcfg.durability.checkpoint_every_requests = every;
    }
    // The replica's very first sync — the one that would make record 1
    // durable — fails.
    rcfg.durability.fault_plan = Some(FaultPlan::fail_sync_seq(1));
    let replica = ReplicaEngine::open(rcfg.clone()).unwrap().0;

    let fetch = |replica: &ReplicaEngine| {
        let (_verb, text) = primary.respond(&replica.fetch_request(4).to_line());
        let resp = FetchResponse::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        replica.apply_response(&resp)
    };
    let err = fetch(&replica).expect_err("the first shipment's commit fails");
    assert!(err.contains("wal commit failed"), "{err}");
    assert!(err.contains("restart the node"), "{err}");
    // Fail-stop: the node stops and applies nothing more.
    assert!(replica.engine().wal_crashed());
    assert!(replica.shutdown_requested(), "a dead wal stops the node");
    assert_eq!(
        replica.applied_seq(),
        4,
        "the shipment is logged and applied"
    );
    let err = fetch(&replica).expect_err("a dead wal applies nothing");
    assert!(err.contains("wal is dead: fsync failed"), "{err}");
    assert_eq!(replica.applied_seq(), 4);
    assert!(
        checkpoint::list(&rdir).unwrap().is_empty(),
        "a dead wal writes no checkpoint"
    );
    // Live state is the fold of the log: recovery reproduces it.
    let live = replica.engine().monitor().snapshot_bytes();
    let report = replica.shutdown_flush();
    let shutdown_error = report
        .checkpoint_error
        .expect("a dead wal cannot checkpoint");
    assert!(
        shutdown_error.contains("scheduled sync failure"),
        "the shutdown error names the first failure: {shutdown_error}"
    );
    drop(replica);
    let (recovered, stats) = recover(&rdir, Some(&fallback())).unwrap();
    assert_eq!(stats.next_seq, 5);
    assert_eq!(recovered.snapshot_bytes(), live, "live == recovered");

    // Restarted on its directory, the replica continues after its log.
    let replica = ReplicaEngine::open(rcfg).unwrap().0;
    assert_eq!(replica.applied_seq(), 4);
    for _round in 0..16 {
        match fetch(&replica) {
            Ok(applied) if applied.fresh == 0 && !applied.snapshot_installed => break,
            Ok(_) => {}
            Err(e) => panic!("the restarted replica failed to apply: {e}"),
        }
    }
    for customer in 1..=3 {
        let score = format!("SCORE {customer}");
        assert_eq!(
            replica.respond(&score).1,
            primary.respond(&score).1,
            "customer {customer}"
        );
    }
    assert_eq!(
        replica.engine().monitor().snapshot_bytes(),
        primary.engine().monitor().snapshot_bytes(),
        "the replica's state is the fold of the primary's log"
    );
    assert_eq!(
        replica.applied_seq(),
        primary.engine().wal_last_seq(),
        "the replica caught up"
    );
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
