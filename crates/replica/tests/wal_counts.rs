//! Exact WAL write and fsync counts through the shipped composition:
//! `PrimaryService` around a durable `Engine`, behind `start_service`,
//! driven over TCP. This binary holds one test because it reads the
//! process-wide `serve.wal.*` counters.

use attrition_core::StabilityParams;
use attrition_replica::PrimaryService;
use attrition_serve::{
    Client, DurabilityConfig, Engine, Reply, ServerConfig, Service, ShardedMonitor,
};
use attrition_store::WindowSpec;
use attrition_types::Date;
use std::sync::Arc;
use std::time::Duration;

/// `serve.wal.writes` and `serve.wal.fsyncs`, read through `STATS`.
fn writes_and_fsyncs(client: &mut Client) -> (u64, u64) {
    let Reply::Stats(json) = client.send("STATS").unwrap() else {
        panic!("STATS did not answer STATS");
    };
    let stat = |name: &str| {
        let key = format!("\"{name}\":");
        let at = json
            .find(&key)
            .unwrap_or_else(|| panic!("{name} in {json}"))
            + key.len();
        let digits: String = json[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse::<u64>().unwrap()
    };
    (stat("serve.wal.writes"), stat("serve.wal.fsyncs"))
}

#[test]
fn each_committing_frame_costs_exactly_one_write_and_one_fsync() {
    let dir = std::env::temp_dir().join(format!("attrition_wal_counts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let dcfg = DurabilityConfig {
        checkpoint_every_requests: 0,
        checkpoint_every: None,
        ..DurabilityConfig::new(&dir)
    };
    let monitor = ShardedMonitor::new(4, spec, StabilityParams::PAPER, 5);
    let engine = Arc::new(Engine::open(monitor, None, Some(&dcfg), 1).unwrap());
    let primary = Arc::new(PrimaryService::open(Arc::clone(&engine), &dir).unwrap());
    let handle = attrition_serve::start_service(
        ServerConfig::new("127.0.0.1:0", spec, StabilityParams::PAPER),
        primary as Arc<dyn Service>,
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr(), Duration::from_secs(10)).unwrap();
    let ingests = |first: u64| -> Vec<String> {
        (first..first + 64)
            .map(|customer| format!("INGEST {customer} 2012-05-02 1 2"))
            .collect()
    };

    // One BATCH 64 of accepted INGESTs: one group write, one fsync.
    let before = writes_and_fsyncs(&mut client);
    let replies = client.send_batch(&ingests(1)).unwrap();
    assert!(
        replies.iter().all(|r| matches!(r, Reply::Closed(_))),
        "{replies:?}"
    );
    let after = writes_and_fsyncs(&mut client);
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));

    // The same 64 requests as single lines: one of each per request.
    let before = after;
    for line in ingests(101) {
        assert!(
            matches!(client.send(&line).unwrap(), Reply::Closed(_)),
            "{line}"
        );
    }
    let after = writes_and_fsyncs(&mut client);
    assert_eq!((after.0 - before.0, after.1 - before.1), (64, 64));

    // A BATCH of SCOREs logs nothing: no write, no fsync.
    let before = after;
    let scores: Vec<String> = (1..=64).map(|c| format!("SCORE {c}")).collect();
    let replies = client.send_batch(&scores).unwrap();
    assert!(
        replies.iter().all(|r| matches!(r, Reply::Score(_))),
        "{replies:?}"
    );
    let after = writes_and_fsyncs(&mut client);
    assert_eq!(after, before);

    client.send("SHUTDOWN").unwrap();
    let summary = handle.join();
    assert!(summary.checkpoint_error.is_none(), "{summary:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
