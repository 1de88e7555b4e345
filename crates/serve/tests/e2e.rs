//! End-to-end server tests: a real listener on an ephemeral port, real
//! TCP clients, datagen scenarios — asserting the served scores are
//! bit-identical to the offline pipeline, backpressure rejects instead
//! of buffering, and graceful shutdown writes a restorable checkpoint.

use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_datagen::ScenarioConfig;
use attrition_serve::client::{Client, Reply};
use attrition_serve::protocol::ParsedScore;
use attrition_serve::server::{self, ServerConfig};
use attrition_serve::shard::ShardedMonitor;
use attrition_store::{chronological, ReceiptStore, WindowSpec};
use attrition_types::{Basket, Date};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn scenario(n_loyal: usize, n_defectors: usize, n_months: u32) -> (ScenarioConfig, ReceiptStore) {
    let mut cfg = ScenarioConfig::small();
    cfg.n_loyal = n_loyal;
    cfg.n_defectors = n_defectors;
    cfg.n_months = n_months;
    cfg.onset_month = n_months / 2;
    let dataset = attrition_datagen::generate(&cfg);
    let seg_store = dataset.segment_store();
    (cfg, seg_store)
}

fn config(spec: WindowSpec) -> ServerConfig {
    let mut config = ServerConfig::new("127.0.0.1:0", spec, StabilityParams::PAPER);
    config.read_timeout = Duration::from_secs(2);
    config
}

/// Sort key shared by online and offline outputs: per-customer windows
/// are unique, so `(customer, window)` totally orders closed windows.
fn normalize(mut scores: Vec<(u64, u32, u64)>) -> Vec<(u64, u32, u64)> {
    scores.sort_unstable();
    scores
}

#[test]
fn served_scores_bit_identical_to_offline_pipeline() {
    let (cfg, seg_store) = scenario(15, 15, 12);
    let spec = WindowSpec::months(cfg.start, 2);
    let end = cfg.start.add_months(cfg.n_months as i32);

    // Offline reference: one monitor over the chronological replay.
    let mut offline = StabilityMonitor::new(spec, StabilityParams::PAPER);
    let mut offline_closed: Vec<(u64, u32, u64)> = Vec::new();
    for receipt in chronological(&seg_store) {
        let basket = Basket::new(receipt.items.to_vec());
        for closed in offline.ingest(receipt.customer, receipt.date, &basket) {
            offline_closed.push((
                closed.customer.raw(),
                closed.point.window.raw(),
                closed.point.value.to_bits(),
            ));
        }
    }
    for closed in offline.flush_until(end) {
        offline_closed.push((
            closed.customer.raw(),
            closed.point.window.raw(),
            closed.point.value.to_bits(),
        ));
    }

    // Online: the same receipts over TCP, sharded 4 ways.
    let handle = server::start(config(spec)).expect("server starts");
    let mut client = Client::connect(handle.local_addr(), TIMEOUT).expect("connects");
    let mut online_closed: Vec<(u64, u32, u64)> = Vec::new();
    let push_all = |closed: &[ParsedScore], online: &mut Vec<(u64, u32, u64)>| {
        for c in closed {
            online.push((c.customer, c.window, c.value.to_bits()));
        }
    };
    for receipt in chronological(&seg_store) {
        let items: Vec<u32> = receipt.items.iter().map(|i| i.raw()).collect();
        match client
            .ingest(receipt.customer.raw(), receipt.date, &items)
            .expect("ingest rpc")
        {
            Reply::Closed(closed) => push_all(&closed, &mut online_closed),
            other => panic!("unexpected ingest reply: {other:?}"),
        }
    }
    match client.flush(end).expect("flush rpc") {
        Reply::Closed(closed) => push_all(&closed, &mut online_closed),
        other => panic!("unexpected flush reply: {other:?}"),
    }

    assert_eq!(
        normalize(offline_closed),
        normalize(online_closed),
        "served scores diverged from the offline pipeline"
    );

    // Live previews agree bit-for-bit too.
    for customer in offline.customer_ids().into_iter().take(3) {
        let raw = customer.raw();
        let offline_preview = offline.preview(customer).expect("tracked");
        match client.score(raw).expect("score rpc") {
            Reply::Score(s) => {
                assert_eq!(s.window, offline_preview.window.raw());
                assert_eq!(s.value.to_bits(), offline_preview.value.to_bits());
            }
            other => panic!("unexpected score reply: {other:?}"),
        }
    }

    match client.send("SHUTDOWN").expect("shutdown rpc") {
        Reply::Ok(message) => assert_eq!(message, "draining"),
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    let summary = handle.join();
    assert_eq!(summary.errors, 0, "no request may have errored");
    assert_eq!(summary.customers, 30);
}

/// Satellite: 1 shard and 8 shards produce identical `WindowClosed`
/// scores per customer on a 200-customer scenario (ordering normalized),
/// mirroring PR 1's 1-vs-8-thread bit-identity test.
#[test]
fn sharded_vs_single_bit_identity_200_customers() {
    let (cfg, seg_store) = scenario(100, 100, 10);
    let spec = WindowSpec::months(cfg.start, 2);
    let end = cfg.start.add_months(cfg.n_months as i32);

    let run = |n_shards: usize| -> Vec<(u64, u32, u64, u64, u64)> {
        let sharded = ShardedMonitor::new(n_shards, spec, StabilityParams::PAPER, 5);
        let mut out = Vec::new();
        for receipt in chronological(&seg_store) {
            let basket = Basket::new(receipt.items.to_vec());
            for closed in sharded
                .ingest(receipt.customer, receipt.date, &basket)
                .expect("chronological replay is in order")
            {
                out.push((
                    closed.customer.raw(),
                    closed.point.window.raw(),
                    closed.point.value.to_bits(),
                    closed.point.present_significance.to_bits(),
                    closed.point.total_significance.to_bits(),
                ));
            }
        }
        for closed in sharded.flush_until(end) {
            out.push((
                closed.customer.raw(),
                closed.point.window.raw(),
                closed.point.value.to_bits(),
                closed.point.present_significance.to_bits(),
                closed.point.total_significance.to_bits(),
            ));
        }
        out.sort_unstable();
        out
    };

    let single = run(1);
    let eight = run(8);
    assert_eq!(single.len(), eight.len());
    assert_eq!(single, eight, "shard count changed the scores");
    // 200 customers really were scored.
    let customers: std::collections::HashSet<u64> = single.iter().map(|r| r.0).collect();
    assert_eq!(customers.len(), 200);
}

#[test]
fn shutdown_drains_and_written_snapshot_restores_equivalently() {
    let (cfg, seg_store) = scenario(10, 10, 8);
    let spec = WindowSpec::months(cfg.start, 2);
    let snapshot_path = std::env::temp_dir().join(format!(
        "attrition_serve_snapshot_{}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&snapshot_path);

    let mut server_config = config(spec);
    server_config.snapshot_path = Some(snapshot_path.clone());
    let handle = server::start(server_config).expect("server starts");

    // A second connection sits idle while we shut down — the drain must
    // not hang on it past the read timeout.
    let idle = Client::connect(handle.local_addr(), TIMEOUT).expect("idle connects");

    let mut offline = StabilityMonitor::new(spec, StabilityParams::PAPER);
    let mut client = Client::connect(handle.local_addr(), TIMEOUT).expect("connects");
    for receipt in chronological(&seg_store) {
        let items: Vec<u32> = receipt.items.iter().map(|i| i.raw()).collect();
        client
            .ingest(receipt.customer.raw(), receipt.date, &items)
            .expect("ingest rpc");
        offline.ingest(
            receipt.customer,
            receipt.date,
            &Basket::new(receipt.items.to_vec()),
        );
    }
    client.send("SHUTDOWN").expect("shutdown rpc");
    let summary = handle.join();
    drop(idle);
    assert_eq!(
        summary.snapshot_path.as_deref(),
        Some(snapshot_path.as_path())
    );
    assert_eq!(summary.customers, 20);

    // The snapshot restores to an equivalent monitor: same customers,
    // bit-identical previews and futures, at any shard count.
    let bytes = std::fs::read(&snapshot_path).expect("snapshot written");
    let restore = |n_shards| {
        ShardedMonitor::from_monitor(
            StabilityMonitor::restore_bytes(&bytes).expect("snapshot restores"),
            n_shards,
        )
    };
    for n_shards in [1usize, 8] {
        let restored = restore(n_shards);
        assert_eq!(restored.num_customers(), offline.num_customers());
        for customer in offline.customer_ids() {
            let a = offline.preview(customer).expect("tracked offline");
            let b = restored.preview(customer).expect("tracked restored");
            assert_eq!(a.window, b.window);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        // Futures agree too: flush both to the horizon.
        let end = cfg.start.add_months(cfg.n_months as i32 + 2);
        let restored_closed = restored.flush_until(end);
        let mut offline_restored =
            StabilityMonitor::restore_bytes(&bytes).expect("single monitor restores");
        let offline_closed = offline_restored.flush_until(end);
        assert_eq!(restored_closed.len(), offline_closed.len());
        for (x, y) in restored_closed.iter().zip(&offline_closed) {
            assert_eq!(x.customer, y.customer);
            assert_eq!(x.point.window, y.point.window);
            assert_eq!(x.point.value.to_bits(), y.point.value.to_bits());
        }
    }

    // A new server can resume from the snapshot.
    let handle = server::start_with(config(spec), restore(4)).expect("restored server starts");
    let mut client = Client::connect(handle.local_addr(), TIMEOUT).expect("connects");
    let probe = offline.customer_ids()[0];
    match client.score(probe.raw()).expect("score rpc") {
        Reply::Score(s) => {
            let expected = offline.preview(probe).unwrap();
            assert_eq!(s.value.to_bits(), expected.value.to_bits());
        }
        other => panic!("unexpected score reply: {other:?}"),
    }
    client.send("SHUTDOWN").expect("shutdown rpc");
    handle.join();
    let _ = std::fs::remove_file(&snapshot_path);
}

#[test]
fn saturated_pool_answers_err_busy() {
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut server_config = config(spec);
    server_config.workers = 1;
    server_config.queue_capacity = 1;
    let handle = server::start(server_config).expect("server starts");
    let addr = handle.local_addr();

    // Occupy the single worker with a live connection...
    let mut occupant = Client::connect(addr, TIMEOUT).expect("connects");
    assert_eq!(occupant.send("PING").expect("ping rpc"), Reply::Pong);
    // ...fill the one queue slot with a second connection...
    let waiting = TcpStream::connect(addr).expect("connects");
    std::thread::sleep(Duration::from_millis(100));
    // ...and watch the third get rejected fast instead of queued.
    let rejected = TcpStream::connect(addr).expect("connects");
    rejected
        .set_read_timeout(Some(TIMEOUT))
        .expect("sets timeout");
    let mut line = String::new();
    BufReader::new(rejected)
        .read_line(&mut line)
        .expect("reads rejection");
    assert_eq!(line.trim_end(), "ERR busy");

    drop(waiting);
    occupant.send("SHUTDOWN").expect("shutdown rpc");
    let summary = handle.join();
    assert!(summary.rejected_busy >= 1, "rejection must be counted");
}

/// Every `ERR busy` line a client actually reads is one tick of the
/// server's `rejected_busy` counter — the two must agree *exactly*, so
/// capacity planning off the metric never under-counts shed load.
#[test]
fn err_busy_replies_match_the_rejected_counter_exactly() {
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut server_config = config(spec);
    server_config.workers = 1;
    server_config.queue_capacity = 1;
    let handle = server::start(server_config).expect("server starts");
    let addr = handle.local_addr();

    // Hold the single worker with a live connection and park a second
    // one in the only queue slot.
    let mut occupant = Client::connect(addr, TIMEOUT).expect("connects");
    assert_eq!(occupant.send("PING").expect("ping rpc"), Reply::Pong);
    let waiting = TcpStream::connect(addr).expect("connects");
    std::thread::sleep(Duration::from_millis(100));

    // Every further connection must bounce; count the ERR busy replies
    // we are actually served.
    let mut seen_busy = 0u64;
    for i in 0..8 {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(TIMEOUT))
            .expect("sets timeout");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("reads rejection");
        assert_eq!(line.trim_end(), "ERR busy", "connection {i}");
        seen_busy += 1;
    }

    drop(waiting);
    occupant.send("SHUTDOWN").expect("shutdown rpc");
    let summary = handle.join();
    assert_eq!(
        summary.rejected_busy, seen_busy,
        "rejected_busy diverged from the ERR busy replies clients saw"
    );
}

#[test]
fn stats_returns_json_metrics_and_errors_are_reported() {
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let handle = server::start(config(spec)).expect("server starts");
    let mut client = Client::connect(handle.local_addr(), TIMEOUT).expect("connects");

    client
        .ingest(1, Date::from_ymd(2012, 5, 3).unwrap(), &[1, 2])
        .expect("ingest rpc");
    // Protocol errors answer ERR but keep the connection alive.
    match client.send("FROB 1 2 3").expect("bad verb rpc") {
        Reply::Err(message) => assert!(message.contains("unknown verb")),
        other => panic!("unexpected reply: {other:?}"),
    }
    match client.score(999).expect("score rpc") {
        Reply::Err(message) => assert!(message.contains("unknown customer")),
        other => panic!("unexpected reply: {other:?}"),
    }
    // Out-of-order ingest is rejected, not a worker panic.
    match client
        .ingest(1, Date::from_ymd(2012, 1, 1).unwrap(), &[1])
        .expect("ingest rpc")
    {
        // Date precedes the grid origin: ignored, closes nothing.
        Reply::Closed(closed) => assert!(closed.is_empty()),
        other => panic!("unexpected reply: {other:?}"),
    }
    client
        .ingest(1, Date::from_ymd(2012, 8, 1).unwrap(), &[1])
        .expect("ingest rpc");
    match client
        .ingest(1, Date::from_ymd(2012, 6, 1).unwrap(), &[1])
        .expect("ingest rpc")
    {
        Reply::Err(message) => assert!(message.contains("out-of-order"), "{message}"),
        other => panic!("unexpected reply: {other:?}"),
    }

    match client.send("STATS").expect("stats rpc") {
        Reply::Stats(json) => {
            assert!(json.starts_with('{') && json.ends_with('}'));
            assert!(json.contains("\"serve.requests\""), "{json}");
            assert!(json.contains("serve.shard.0.customers"), "{json}");
            assert!(json.contains("serve.latency.ingest"), "{json}");
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }

    client.send("SHUTDOWN").expect("shutdown rpc");
    let summary = handle.join();
    assert!(summary.errors >= 2);
    assert_eq!(summary.customers, 1);
}

#[test]
fn idle_connections_close_at_the_read_timeout() {
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut server_config = config(spec);
    server_config.read_timeout = Duration::from_millis(200);
    let handle = server::start(server_config).expect("server starts");

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("sets timeout");
    std::thread::sleep(Duration::from_millis(700));
    // The server has hung up; the next request gets EOF, not a reply.
    let _ = stream.write_all(b"PING\n");
    let mut line = String::new();
    let n = BufReader::new(stream).read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF after idle timeout, got {line:?}");

    handle.request_shutdown();
    handle.join();
}
