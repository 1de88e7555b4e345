//! A replica whose own WAL fails must not fall behind its own log.
//!
//! A failed fsync leaves the shipped record in the replica's log but
//! answered `ERR` and unapplied. The replica must notice, rebuild its
//! state from that log, and keep fetching from there — after which its
//! `SCORE`s and its snapshot equal the primary's.

use attrition_core::StabilityParams;
use attrition_replica::{FetchResponse, PrimaryService, ReplicaConfig, ReplicaEngine};
use attrition_serve::checkpoint::CheckpointFormat;
use attrition_serve::recovery::Fallback;
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
    rebuilt_after_a_failed_sync("plain", None);
}

/// The failed sync lands in a shipment that also makes a periodic
/// checkpoint due (every fetch of 4 records crosses the count). The
/// records whose commit failed must not count toward it: a checkpoint
/// written before the rebuild would cover them from a monitor that never
/// applied them, truncate them out of the log, and the replica would
/// never fetch them again.
#[test]
fn a_failed_replica_sync_does_not_trigger_a_checkpoint_that_skips_it() {
    rebuilt_after_a_failed_sync("checkpointing", Some(4));
}

/// `replica_checkpoint_every` overrides the replica's default count
/// trigger.
fn rebuilt_after_a_failed_sync(tag: &str, replica_checkpoint_every: Option<u64>) {
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
    let replica = ReplicaEngine::open(rcfg).unwrap().0;

    let mut failures = Vec::new();
    for _round in 0..16 {
        let (_verb, text) = primary.respond(&replica.fetch_request(4).to_line());
        let resp = FetchResponse::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        match replica.apply_response(&resp) {
            Ok(applied) if applied.fresh == 0 && !applied.snapshot_installed => break,
            Ok(_) => {}
            Err(e) => failures.push(e),
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
        replica.engine().monitor().snapshot(),
        primary.engine().monitor().snapshot(),
        "the replica's state is the fold of the primary's log"
    );
    assert_eq!(
        failures.len(),
        1,
        "exactly the one injected failure: {failures:?}"
    );
    assert!(failures[0].contains("rebuilt"), "{}", failures[0]);
    assert_eq!(
        replica.applied_seq(),
        primary.engine().wal_last_seq(),
        "the replica caught up"
    );
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
