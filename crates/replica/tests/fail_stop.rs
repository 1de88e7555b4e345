//! A primary whose fsync fails stops, through the real stack: the
//! shipped `PrimaryService` behind `start_service`, driven over TCP.
//! This binary holds one test because it reads the process-wide
//! `serve.wal.poisoned` gauge.

use attrition_core::StabilityParams;
use attrition_replica::PrimaryService;
use attrition_serve::recovery::{recover, Fallback};
use attrition_serve::{
    Client, DurabilityConfig, Engine, FaultPlan, Reply, ServerConfig, Service, ShardedMonitor,
};
use attrition_store::WindowSpec;
use attrition_types::Date;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn a_failed_fsync_stops_the_primary_and_recovery_equals_live_state() {
    let dir = std::env::temp_dir().join(format!("attrition_fail_stop_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let dcfg = DurabilityConfig {
        checkpoint_every_requests: 0,
        checkpoint_every: None,
        // Record 3's group commit fails.
        fault_plan: Some(FaultPlan::fail_sync_seq(3)),
        ..DurabilityConfig::new(&dir)
    };
    let monitor = ShardedMonitor::new(4, spec, StabilityParams::PAPER, 5);
    let engine = Arc::new(Engine::open(monitor, None, Some(&dcfg), 1).unwrap());
    let primary = Arc::new(PrimaryService::open(Arc::clone(&engine), &dir).unwrap());
    let handle = attrition_serve::start_service(
        ServerConfig::new("127.0.0.1:0", spec, StabilityParams::PAPER),
        Arc::clone(&primary) as Arc<dyn Service>,
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr(), Duration::from_secs(10)).unwrap();
    for line in ["INGEST 1 2012-05-02 1", "INGEST 2 2012-05-03 2"] {
        assert!(
            matches!(client.send(line).unwrap(), Reply::Closed(_)),
            "{line}"
        );
    }
    // The frame holding record 3: both its logged members answer ERR.
    let frame: Vec<String> = [
        "INGEST 1 2012-06-02 3",
        "SCORE 1",
        "INGEST 1 2012-05-09 9",
        "INGEST 3 2012-06-04 4",
    ]
    .map(str::to_owned)
    .to_vec();
    let replies = client.send_batch(&frame).unwrap();
    let failed = Reply::Err("wal commit failed: injected fault: scheduled sync failure".into());
    assert_eq!(replies[0], failed, "{replies:?}");
    assert!(matches!(&replies[1], Reply::Score(_)), "{replies:?}");
    assert!(
        matches!(&replies[2], Reply::Err(e) if e.starts_with("out-of-order")),
        "{replies:?}"
    );
    assert_eq!(replies[3], failed, "{replies:?}");
    let live = engine.monitor().snapshot_bytes();
    assert_eq!(engine.wal_last_seq(), 4);

    // Nothing is acked after the failure: the connection closes, and a
    // mutation that still reaches the service meets the dead log.
    assert!(!matches!(
        client.send("INGEST 4 2012-06-05 5"),
        Ok(Reply::Closed(_))
    ));
    for line in ["INGEST 4 2012-06-05 5", "FLUSH 2012-07-01"] {
        let reply = primary.respond(line).1;
        assert!(
            reply.starts_with("ERR wal append failed: wal is dead: fsync failed: "),
            "{reply}"
        );
    }
    let stats = primary.respond("STATS").1;
    assert!(stats.contains("\"serve.wal.poisoned\":1"), "{stats}");

    // The server drains by itself and reports the dead log.
    let started = Instant::now();
    let summary = handle.join();
    assert!(started.elapsed() < Duration::from_secs(10));
    let error = summary
        .checkpoint_error
        .expect("a dead wal cannot checkpoint");
    assert!(error.contains("scheduled sync failure"), "{error}");
    assert_eq!(
        engine.monitor().snapshot_bytes(),
        live,
        "nothing applied after"
    );
    drop((primary, engine));

    let fallback = Fallback {
        spec,
        params: StabilityParams::PAPER,
        max_explanations: 5,
    };
    let (recovered, stats) = recover(&dir, Some(&fallback)).expect("recovery succeeds");
    assert_eq!(stats.replayed, 4);
    assert_eq!(recovered.snapshot_bytes(), live, "live == recovered");
    let _ = std::fs::remove_dir_all(&dir);
}
