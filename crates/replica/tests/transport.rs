//! The TCP transport ships the same bytes the simulator ships: every
//! `REPL` response read off a real socket must equal, byte for byte,
//! the string `PrimaryService::respond` returns in memory — which is
//! exactly what `attrition-sim` puts on its in-memory network. The
//! replication sweep's guarantees transfer to the wire only because of
//! this equality.

use attrition_core::StabilityParams;
use attrition_replica::{FetchRequest, FetchResponse, PrimaryService};
use attrition_serve::checkpoint::CheckpointFormat;
use attrition_serve::{
    DurabilityConfig, Engine, ServerConfig, Service, ShardedMonitor, SyncPolicy,
};
use attrition_store::WindowSpec;
use attrition_types::Date;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "attrition_repl_transport_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Send one line and read the full framed response (header plus its
/// self-announced continuation lines), newline-joined, as the raw text.
fn roundtrip(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    reader
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    let header = header.trim_end_matches(['\n', '\r']).to_owned();
    let extra = FetchResponse::extra_lines(&header).unwrap_or(0);
    let mut text = header;
    for _ in 0..extra {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        text.push('\n');
        text.push_str(line.trim_end_matches(['\n', '\r']));
    }
    text
}

#[test]
fn tcp_responses_are_bit_identical_to_in_memory_responses() {
    let dir = temp_dir("bitident");
    let origin = Date::from_ymd(2012, 5, 1).unwrap();
    let spec = WindowSpec::months(origin, 1);
    let params = StabilityParams::PAPER;
    let dcfg = DurabilityConfig {
        wal_dir: dir.clone(),
        sync_policy: SyncPolicy::Always,
        // A tight count trigger so checkpoints truncate the WAL and a
        // from-zero fetch must answer with a bootstrap snapshot.
        checkpoint_every_requests: 8,
        checkpoint_every: None,
        keep_checkpoints: 2,
        checkpoint_format: CheckpointFormat::Binary,
        fault_plan: None,
    };
    let monitor = ShardedMonitor::new(4, spec, params, 5);
    let engine = Arc::new(Engine::open(monitor, None, Some(&dcfg), 1).unwrap());
    let primary = Arc::new(PrimaryService::open(Arc::clone(&engine), &dir).unwrap());
    for day in 1..=20 {
        let (_verb, resp) = primary.respond(&format!(
            "INGEST {} 2012-05-{:02} 10 {}",
            1 + day % 3,
            1 + day % 28,
            100 + day
        ));
        assert!(resp.starts_with("OK"), "{resp}");
    }

    let mut config = ServerConfig::new("127.0.0.1:0", spec, params);
    config.workers = 2;
    let handle =
        attrition_serve::start_service(config, Arc::clone(&primary) as Arc<dyn Service>).unwrap();
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);

    // From-zero (snapshot bootstrap), mid-log (record batch), caught-up
    // (empty batch), and a fenced request — each answered over TCP with
    // exactly the bytes the in-memory transport carries.
    let floor = engine.wal_synced_seq();
    assert!(floor > 16, "the log must have a durable tail: {floor}");
    let requests = [
        FetchRequest {
            epoch: 1,
            after: 0,
            max: 4,
        },
        FetchRequest {
            epoch: 1,
            after: floor - 3,
            max: 2,
        },
        FetchRequest {
            epoch: 1,
            after: floor,
            max: 8,
        },
        FetchRequest {
            epoch: 99,
            after: 0,
            max: 1,
        },
    ];
    let mut saw_snapshot = false;
    let mut saw_records = false;
    for req in &requests {
        let line = req.to_line();
        let (_verb, in_memory) = primary.respond(&line);
        let over_tcp = roundtrip(&mut reader, &line);
        assert_eq!(
            in_memory, over_tcp,
            "transport changed the bytes for {line:?}"
        );
        match FetchResponse::parse(&in_memory) {
            Ok(FetchResponse::Snapshot { .. }) => saw_snapshot = true,
            Ok(FetchResponse::Batch { records, .. }) if !records.is_empty() => saw_records = true,
            Ok(FetchResponse::Batch { .. }) => {}
            Err(_) => assert!(in_memory.starts_with("ERR fenced"), "{in_memory}"),
        }
    }
    assert!(saw_snapshot, "the from-zero fetch must ship a snapshot");
    assert!(saw_records, "the mid-log fetch must ship records");

    handle.request_shutdown();
    drop(reader);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_replication_frames_err_gracefully_on_a_surviving_connection() {
    let dir = temp_dir("corpus");
    let origin = Date::from_ymd(2012, 5, 1).unwrap();
    let spec = WindowSpec::months(origin, 1);
    let params = StabilityParams::PAPER;
    let dcfg = DurabilityConfig {
        wal_dir: dir.clone(),
        sync_policy: SyncPolicy::Always,
        checkpoint_every_requests: 1024,
        checkpoint_every: None,
        keep_checkpoints: 2,
        checkpoint_format: CheckpointFormat::Binary,
        fault_plan: None,
    };
    let monitor = ShardedMonitor::new(2, spec, params, 5);
    let engine = Arc::new(Engine::open(monitor, None, Some(&dcfg), 1).unwrap());
    let primary = Arc::new(PrimaryService::open(Arc::clone(&engine), &dir).unwrap());
    let (_verb, resp) = primary.respond("INGEST 1 2012-05-02 10 11");
    assert!(resp.starts_with("OK"), "{resp}");

    let mut config = ServerConfig::new("127.0.0.1:0", spec, params);
    config.workers = 2;
    let handle =
        attrition_serve::start_service(config, Arc::clone(&primary) as Arc<dyn Service>).unwrap();
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);

    // Every malformed or fenced frame must answer `ERR` — and the very
    // same connection must keep serving afterwards (checked by a PING
    // after each case). A parse error is a client bug, never a reason
    // to burn the replication channel.
    let corpus = [
        // REPL: non-numeric, overflowing, wrong-arity, zero-max.
        "REPL",
        "REPL 1 2",
        "REPL 1 2 3 4",
        "REPL x 0 64",
        "REPL 1 y 64",
        "REPL 1 0 z",
        "REPL 18446744073709551616 0 64",
        "REPL 1 18446744073709551616 64",
        "REPL 1 0 18446744073709551616",
        "REPL 1 0 0",
        // Stale-epoch fetch: the requester claims a future generation.
        "REPL 99 0 64",
        // REJOIN: same classes of malformation, plus a future epoch.
        "REJOIN",
        "REJOIN 1",
        "REJOIN 1 2 3",
        "REJOIN x 2",
        "REJOIN 1 18446744073709551616",
        "REJOIN 99 0",
    ];
    for line in corpus {
        let response = roundtrip(&mut reader, line);
        assert!(
            response.starts_with("ERR"),
            "expected ERR for {line:?}, got {response:?}"
        );
        let pong = roundtrip(&mut reader, "PING");
        assert_eq!(pong, "PONG", "connection died after {line:?}");
    }

    // `max` above the batch cap is clamped, not rejected: the fetch
    // succeeds and ships at most the cap.
    let response = roundtrip(&mut reader, "REPL 1 0 999999");
    match FetchResponse::parse(&response).unwrap() {
        FetchResponse::Batch { records, .. } => {
            assert!(records.len() <= attrition_replica::MAX_BATCH_RECORDS);
            assert!(!records.is_empty());
        }
        other => panic!("expected a batch, got {other:?}"),
    }

    // A well-formed handshake on the same connection still works.
    let response = roundtrip(&mut reader, "REJOIN 1 0");
    assert_eq!(response, "RJOIN 1 0");

    handle.request_shutdown();
    drop(reader);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `REPL` in member position of a `BATCH` frame answers one `ERR`
/// line, so the frame's reply splits with the plain member-response
/// readers — `protocol::member_responses` in memory and
/// `Client::read_batch_replies` over TCP — while a single-line `REPL`
/// still ships an `RBATCH`.
#[test]
fn repl_inside_a_batch_frame_answers_one_line() {
    use attrition_serve::{member_responses, BatchScratch, Client, Reply};

    let dir = temp_dir("repl_in_batch");
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let params = StabilityParams::PAPER;
    let monitor = ShardedMonitor::new(2, spec, params, 5);
    let engine =
        Arc::new(Engine::open(monitor, None, Some(&DurabilityConfig::new(&dir)), 1).unwrap());
    let primary = Arc::new(PrimaryService::open(Arc::clone(&engine), &dir).unwrap());
    let frame: Vec<String> = [
        "INGEST 1 2012-05-02 10 11",
        "REPL 1 0 8",
        "INGEST 1 2012-07-02 12",
        "SCORE 1",
        "PING",
    ]
    .map(str::to_owned)
    .to_vec();

    let mut out = String::new();
    primary.respond_batch(&frame, &mut BatchScratch::new(), &mut out);
    let body = out.strip_prefix("OKBATCH 5\n").expect(&out);
    let members: Vec<&str> = member_responses(body).collect();
    assert_eq!(members.len(), 5, "{out:?}");
    assert_eq!(members[0], "OK 0");
    assert_eq!(members[1], "ERR REPL not allowed in BATCH");
    assert!(
        members[2].starts_with("OK 2\nCLOSED 1 0 "),
        "{}",
        members[2]
    );
    assert!(members[3].starts_with("SCORE 1 2 "), "{}", members[3]);
    assert_eq!(members[4], "PONG");

    let mut config = ServerConfig::new("127.0.0.1:0", spec, params);
    config.workers = 2;
    let handle =
        attrition_serve::start_service(config, Arc::clone(&primary) as Arc<dyn Service>).unwrap();
    let mut client = Client::connect(handle.local_addr(), Duration::from_secs(10)).unwrap();
    let frame: Vec<String> = ["INGEST 2 2012-07-03 10", "REPL 1 0 8", "SCORE 2"]
        .map(str::to_owned)
        .to_vec();
    client.write_batch(&frame).unwrap();
    let replies = client.read_batch_replies(3).unwrap();
    assert!(matches!(&replies[0], Reply::Closed(_)), "{replies:?}");
    assert_eq!(
        replies[1],
        Reply::Err("REPL not allowed in BATCH".to_owned())
    );
    assert!(matches!(&replies[2], Reply::Score(_)), "{replies:?}");
    drop(client);

    // A single-line REPL is a shipment: the three logged records.
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let shipped = roundtrip(&mut reader, "REPL 1 0 8");
    match FetchResponse::parse(&shipped) {
        Ok(FetchResponse::Batch { records, .. }) => assert_eq!(records.len(), 3, "{shipped}"),
        other => panic!("a single-line REPL must ship records: {other:?}"),
    }

    handle.request_shutdown();
    drop(reader);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
