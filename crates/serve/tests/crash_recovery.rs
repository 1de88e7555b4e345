//! Fault-injected crash-recovery tests: a real durable server is
//! "killed" mid-stream by a [`FaultPlan`], then rebuilt from its WAL
//! directory — and the recovered state must be **bit-identical** to an
//! offline monitor that processed exactly the acknowledged requests.
//! Snapshot text compares floats in shortest-roundtrip form, so string
//! equality here is `to_bits` equality on every score.

use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_datagen::ScenarioConfig;
use attrition_serve::client::{Client, Reply};
use attrition_serve::server::{self, DurabilityConfig, ServerConfig};
use attrition_serve::{recover, Fallback, FaultPlan, ShardedMonitor, SyncPolicy};
use attrition_store::{chronological, ReceiptStore, WindowSpec};
use attrition_types::{Basket, CustomerId, Date};
use std::path::{Path, PathBuf};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("attrition_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario(n_loyal: usize, n_defectors: usize, n_months: u32) -> (ScenarioConfig, ReceiptStore) {
    let mut cfg = ScenarioConfig::small();
    cfg.n_loyal = n_loyal;
    cfg.n_defectors = n_defectors;
    cfg.n_months = n_months;
    cfg.onset_month = n_months / 2;
    let dataset = attrition_datagen::generate(&cfg);
    (cfg, dataset.segment_store())
}

fn durable_config(spec: WindowSpec, dir: &Path, plan: FaultPlan) -> ServerConfig {
    let mut config = ServerConfig::new("127.0.0.1:0", spec, StabilityParams::PAPER);
    config.read_timeout = Duration::from_secs(2);
    let mut dcfg = DurabilityConfig::new(dir.to_path_buf());
    // `Never` keeps the tests fast; recovery correctness is the same
    // code path for every policy (only the ack guarantee differs).
    dcfg.sync_policy = SyncPolicy::Never;
    dcfg.fault_plan = Some(plan);
    config.durability = Some(dcfg);
    config
}

fn fallback(spec: WindowSpec) -> Fallback {
    Fallback {
        spec,
        params: StabilityParams::PAPER,
        max_explanations: 5,
    }
}

/// Replay the scenario through a durable server that "dies" after
/// `crash_after` WAL appends; returns the offline reference monitor fed
/// exactly the acknowledged ingests, plus how many were acked.
fn run_until_crash(
    seg_store: &ReceiptStore,
    spec: WindowSpec,
    dir: &Path,
    plan: FaultPlan,
) -> (StabilityMonitor, u64) {
    let handle = server::start(durable_config(spec, dir, plan)).expect("server starts");
    let mut client = Client::connect(handle.local_addr(), TIMEOUT).expect("connects");
    let mut reference = StabilityMonitor::new(spec, StabilityParams::PAPER);
    let mut acked = 0u64;
    for receipt in chronological(seg_store) {
        let items: Vec<u32> = receipt.items.iter().map(|i| i.raw()).collect();
        match client.ingest(receipt.customer.raw(), receipt.date, &items) {
            Ok(Reply::Closed(_)) => {
                acked += 1;
                reference.ingest(
                    receipt.customer,
                    receipt.date,
                    &Basket::new(receipt.items.to_vec()),
                );
            }
            Ok(Reply::Err(message)) => {
                assert!(
                    message.contains("wal append failed"),
                    "only wal failures may reject this stream: {message}"
                );
            }
            Ok(other) => panic!("unexpected ingest reply: {other:?}"),
            // The crashed server may also drop the connection mid-reply.
            Err(_) => break,
        }
    }
    // The "process" dies: no graceful SHUTDOWN. The shutdown checkpoint
    // runs anyway when the handle drains — and must FAIL (the WAL is
    // frozen), leaving recovery to the WAL files, like a real crash.
    handle.request_shutdown();
    let summary = handle.join();
    assert!(
        summary.checkpoint_error.is_some(),
        "a crashed WAL must fail the shutdown checkpoint, not fake one"
    );
    (reference, acked)
}

#[test]
fn crash_mid_stream_recovers_bit_identical_to_acked_requests() {
    let dir = temp_dir("midstream");
    let (cfg, seg_store) = scenario(10, 10, 8);
    let spec = WindowSpec::months(cfg.start, 1);

    let (reference, acked) = run_until_crash(&seg_store, spec, &dir, FaultPlan::crash_after(120));
    assert_eq!(acked, 120, "exactly the appended records were acked");

    let (recovered, stats) = recover(&dir, Some(&fallback(spec))).expect("recovery succeeds");
    assert_eq!(stats.replayed, 120);
    assert_eq!(stats.next_seq, 121);
    assert_eq!(
        recovered.snapshot(),
        reference.snapshot(),
        "recovered state diverged from the acknowledged requests"
    );

    // The recovered monitor scores the future identically too.
    let mut recovered = recovered;
    let mut reference = reference;
    let end = cfg.start.add_months(cfg.n_months as i32 + 1);
    let (a, b) = (recovered.flush_until(end), reference.flush_until(end));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.customer, y.customer);
        assert_eq!(x.point.value.to_bits(), y.point.value.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_loses_only_the_torn_record() {
    let dir = temp_dir("torn");
    let (cfg, seg_store) = scenario(8, 8, 6);
    let spec = WindowSpec::months(cfg.start, 1);

    // Tear 1 byte off the file at the crash: the final record's frame
    // fails its CRC, so exactly that record is lost — the contract of
    // `SyncPolicy::Never`, where an ack only survives a *process* crash
    // once the OS has the bytes, not a torn write.
    let (reference, acked) =
        run_until_crash(&seg_store, spec, &dir, FaultPlan::crash_after_torn(80, 1));
    assert_eq!(acked, 80);

    let (recovered, stats) = recover(&dir, Some(&fallback(spec))).expect("recovery succeeds");
    assert_eq!(stats.torn_bytes, 8 + 8 + stats_last_op_len(&seg_store, 80));
    assert_eq!(
        stats.replayed, 79,
        "all but the torn record replay: {stats:?}"
    );

    // Bit-identity with the acked stream *minus* the torn record.
    let mut expected = StabilityMonitor::new(spec, StabilityParams::PAPER);
    for receipt in chronological(&seg_store).take(79) {
        expected.ingest(
            receipt.customer,
            receipt.date,
            &Basket::new(receipt.items.to_vec()),
        );
    }
    assert_eq!(recovered.snapshot(), expected.snapshot());
    assert_ne!(
        recovered.snapshot(),
        reference.snapshot(),
        "the torn record must actually be missing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Length of the op line of the `n`th (1-based) chronological ingest —
/// the tear removes 1 byte, so the whole final frame (8-byte header +
/// 8-byte seq + op) is dropped by the CRC check.
fn stats_last_op_len(seg_store: &ReceiptStore, n: usize) -> u64 {
    let receipt = chronological(seg_store).nth(n - 1).expect("record exists");
    let mut op = format!("INGEST {} {}", receipt.customer.raw(), receipt.date);
    for item in receipt.items.iter() {
        op.push(' ');
        op.push_str(&item.raw().to_string());
    }
    op.len() as u64 - 1 // the torn byte itself is already off the file
}

/// The group write holding the 10th append fails: that frame's member
/// was applied but is answered `ERR`, the log dies, the server stops by
/// itself, and recovery restores exactly the acked records.
#[test]
fn a_failed_group_write_stops_the_server_and_recovery_keeps_the_acked() {
    let dir = temp_dir("failedwrite");
    let (cfg, seg_store) = scenario(5, 5, 6);
    let spec = WindowSpec::months(cfg.start, 1);

    let handle = server::start(durable_config(spec, &dir, FaultPlan::fail_append(10)))
        .expect("server starts");
    let mut client = Client::connect(handle.local_addr(), TIMEOUT).expect("connects");
    let mut reference = StabilityMonitor::new(spec, StabilityParams::PAPER);
    let mut acked = 0u64;
    let mut refused = Vec::new();
    for receipt in chronological(&seg_store) {
        let items: Vec<u32> = receipt.items.iter().map(|i| i.raw()).collect();
        match client.ingest(receipt.customer.raw(), receipt.date, &items) {
            Ok(Reply::Closed(_)) => {
                acked += 1;
                reference.ingest(
                    receipt.customer,
                    receipt.date,
                    &Basket::new(receipt.items.to_vec()),
                );
            }
            Ok(Reply::Err(message)) => refused.push(message),
            Ok(other) => panic!("unexpected reply: {other:?}"),
            // The stopped server closed the connection.
            Err(_) => break,
        }
    }
    assert_eq!(acked, 9, "every append before the failed write was acked");
    assert_eq!(
        refused,
        ["wal commit failed: injected fault: scheduled write failure"]
    );

    let summary = handle.join();
    let error = summary
        .checkpoint_error
        .expect("a dead wal cannot checkpoint");
    assert!(
        error.contains("wal is dead: write failed: injected fault"),
        "{error}"
    );
    let (recovered, stats) = recover(&dir, Some(&fallback(spec))).expect("recovery succeeds");
    assert_eq!(stats.replayed, 9);
    assert_eq!(recovered.snapshot(), reference.snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL directory removed and re-created in one process gets a fresh
/// log: the engine writes the file now at the path, not the unlinked
/// one the process-wide storage opened for the previous pass.
#[test]
fn a_recreated_wal_directory_recovers_only_its_own_records() {
    use attrition_serve::Engine;

    let dir = temp_dir("recreated");
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut dcfg = DurabilityConfig::new(dir.clone());
    dcfg.checkpoint_every_requests = 0;
    dcfg.checkpoint_every = None;
    for pass in 1..=3u32 {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let monitor = ShardedMonitor::new(2, spec, StabilityParams::PAPER, 5);
        let engine = Engine::open(monitor, None, Some(&dcfg), 1).expect("engine opens");
        let mut reference = StabilityMonitor::new(spec, StabilityParams::PAPER);
        let date = Date::from_ymd(2012, 5, pass).unwrap();
        for customer in 1..=u64::from(pass) {
            let reply = engine
                .respond(&format!("INGEST {customer} {date} {pass}"))
                .1;
            assert_eq!(reply, "OK 0", "pass {pass}");
            reference.ingest(CustomerId::new(customer), date, &Basket::from_raw(&[pass]));
        }
        drop(engine);
        let (recovered, stats) = recover(&dir, Some(&fallback(spec))).expect("recovery succeeds");
        assert_eq!(stats.replayed, u64::from(pass), "pass {pass}");
        assert_eq!(recovered.snapshot(), reference.snapshot(), "pass {pass}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_continues_the_log_and_periodic_checkpoints_cut_exactly() {
    let dir = temp_dir("restart");
    let (cfg, seg_store) = scenario(6, 6, 8);
    let spec = WindowSpec::months(cfg.start, 1);
    let receipts: Vec<_> = chronological(&seg_store).collect();
    let half = receipts.len() / 2;

    let mut reference = StabilityMonitor::new(spec, StabilityParams::PAPER);
    let serve_slice = |slice: &[attrition_store::ReceiptRef<'_>],
                       monitor: ShardedMonitor,
                       next_seq: u64,
                       reference: &mut StabilityMonitor| {
        let mut config = durable_config(spec, &dir, FaultPlan::none());
        // Aggressive periodic checkpointing: every 16 requests, so the
        // run exercises write→prune→truncate many times mid-stream.
        config
            .durability
            .as_mut()
            .unwrap()
            .checkpoint_every_requests = 16;
        let handle = server::start_resumed(config, monitor, next_seq).expect("server starts");
        let mut client = Client::connect(handle.local_addr(), TIMEOUT).expect("connects");
        for receipt in slice {
            let items: Vec<u32> = receipt.items.iter().map(|i| i.raw()).collect();
            match client
                .ingest(receipt.customer.raw(), receipt.date, &items)
                .expect("ingest rpc")
            {
                Reply::Closed(_) => {
                    reference.ingest(
                        receipt.customer,
                        receipt.date,
                        &Basket::new(receipt.items.to_vec()),
                    );
                }
                other => panic!("unexpected ingest reply: {other:?}"),
            }
        }
        client.send("SHUTDOWN").expect("shutdown rpc");
        let summary = handle.join();
        assert!(summary.checkpoint_error.is_none());
        assert!(summary.checkpoints >= 1);
        summary
    };

    // First run: fresh directory.
    let monitor = ShardedMonitor::new(4, spec, StabilityParams::PAPER, 5);
    serve_slice(&receipts[..half], monitor, 1, &mut reference);

    // Restart: recover, serve the rest, recover again.
    let (recovered, stats) = recover(&dir, None).expect("recovery after first run");
    assert_eq!(recovered.snapshot(), reference.snapshot(), "first half");
    let monitor = ShardedMonitor::from_monitor(recovered, 4);
    serve_slice(&receipts[half..], monitor, stats.next_seq, &mut reference);

    let (final_state, final_stats) = recover(&dir, None).expect("recovery after second run");
    assert_eq!(
        final_state.snapshot(),
        reference.snapshot(),
        "full stream after a restart"
    );
    // Clean shutdowns truncate the WAL: nothing to replay.
    assert_eq!(final_stats.replayed, 0);
    assert!(final_stats.checkpoint_lsn.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_is_logged_and_replayed() {
    let dir = temp_dir("flush");
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let handle = server::start(durable_config(spec, &dir, FaultPlan::crash_after(3)))
        .expect("server starts");
    let mut client = Client::connect(handle.local_addr(), TIMEOUT).expect("connects");
    client
        .ingest(1, Date::from_ymd(2012, 5, 2).unwrap(), &[1, 2])
        .expect("ingest rpc");
    client
        .ingest(2, Date::from_ymd(2012, 5, 3).unwrap(), &[3])
        .expect("ingest rpc");
    // The flush closes 3 monthly windows (May–July) for each of the two
    // customers — and is the 3rd logged record, after which the WAL
    // freezes.
    match client
        .flush(Date::from_ymd(2012, 8, 1).unwrap())
        .expect("flush rpc")
    {
        Reply::Closed(closed) => assert_eq!(closed.len(), 6),
        other => panic!("unexpected flush reply: {other:?}"),
    }
    handle.request_shutdown();
    let summary = handle.join();
    assert!(summary.checkpoint_error.is_some(), "wal is frozen");

    let (recovered, stats) = recover(&dir, Some(&fallback(spec))).expect("recovery succeeds");
    assert_eq!(stats.replayed, 3);
    let mut reference = StabilityMonitor::new(spec, StabilityParams::PAPER);
    reference.ingest(
        CustomerId::new(1),
        Date::from_ymd(2012, 5, 2).unwrap(),
        &Basket::from_raw(&[1, 2]),
    );
    reference.ingest(
        CustomerId::new(2),
        Date::from_ymd(2012, 5, 3).unwrap(),
        &Basket::from_raw(&[3]),
    );
    reference.flush_until(Date::from_ymd(2012, 8, 1).unwrap());
    assert_eq!(recovered.snapshot(), reference.snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a durability directory holding only a stranded
/// `checkpoint-*.ckpt.tmp` (the crash hit between the staging write and
/// a durable rename) plus an empty (0-byte) WAL used to fail recovery
/// with `NoGrid` even though a fully verified checkpoint was sitting
/// right there under the staging name. Recovery must salvage it — here
/// the checkpoint of an *empty* server, so the recovered state is the
/// empty state.
#[test]
fn stranded_tmp_checkpoint_with_empty_wal_recovers() {
    use attrition_serve::checkpoint;

    let dir = temp_dir("tmponly");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let empty = StabilityMonitor::new(spec, StabilityParams::PAPER).with_max_explanations(5);

    // A first-boot shutdown checkpoint of an empty server, stranded
    // under its staging name, next to a 0-byte log.
    let final_path =
        checkpoint::write_binary(&dir, 0, &empty.snapshot_bytes()).expect("checkpoint written");
    let tmp_path = checkpoint::tmp_path(&final_path);
    std::fs::rename(&final_path, &tmp_path).unwrap();
    std::fs::write(dir.join("wal.log"), b"").unwrap();

    // No fallback grid: before the fix this was RecoveryError::NoGrid.
    let (recovered, stats) = recover(&dir, None).expect("tmp checkpoint must be salvaged");
    assert!(stats.salvaged_tmp, "{stats:?}");
    assert_eq!(stats.checkpoint_lsn, Some(0));
    assert_eq!(stats.next_seq, 1);
    assert_eq!(recovered.num_customers(), 0, "empty state, not an error");
    assert_eq!(recovered.snapshot(), empty.snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The salvage is a last resort: with any valid *final* checkpoint
/// present, a stranded tmp — even one with a higher LSN — must be
/// ignored, because the WAL can only have been truncated against a
/// durably renamed checkpoint (final + replay reaches at least the
/// tmp's state).
#[test]
fn stranded_tmp_is_ignored_when_a_final_checkpoint_exists() {
    use attrition_serve::checkpoint;

    let dir = temp_dir("tmpvsfinal");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut monitor = StabilityMonitor::new(spec, StabilityParams::PAPER).with_max_explanations(5);
    monitor.ingest(
        CustomerId::new(1),
        Date::from_ymd(2012, 5, 2).unwrap(),
        &Basket::from_raw(&[1]),
    );
    checkpoint::write_binary(&dir, 1, &monitor.snapshot_bytes()).expect("final checkpoint");
    let final_snapshot = monitor.snapshot();

    // A newer, *different* state stranded under a staging name.
    monitor.ingest(
        CustomerId::new(2),
        Date::from_ymd(2012, 5, 3).unwrap(),
        &Basket::from_raw(&[2]),
    );
    let newer =
        checkpoint::write_binary(&dir, 2, &monitor.snapshot_bytes()).expect("newer checkpoint");
    std::fs::rename(&newer, checkpoint::tmp_path(&newer)).unwrap();
    std::fs::write(dir.join("wal.log"), b"").unwrap();

    let (recovered, stats) = recover(&dir, None).expect("recovery succeeds");
    assert!(!stats.salvaged_tmp, "finals are preferred: {stats:?}");
    assert_eq!(stats.checkpoint_lsn, Some(1));
    assert_eq!(recovered.snapshot(), final_snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same edge case end to end: a server resumed from a tmp-only
/// directory starts serving the salvaged state instead of dying.
#[test]
fn server_resumes_from_a_tmp_only_directory() {
    use attrition_serve::checkpoint;

    let dir = temp_dir("tmpresume");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut monitor = StabilityMonitor::new(spec, StabilityParams::PAPER).with_max_explanations(5);
    monitor.ingest(
        CustomerId::new(7),
        Date::from_ymd(2012, 5, 2).unwrap(),
        &Basket::from_raw(&[1, 2]),
    );
    let path = checkpoint::write_binary(&dir, 3, &monitor.snapshot_bytes()).expect("checkpoint");
    std::fs::rename(&path, checkpoint::tmp_path(&path)).unwrap();
    std::fs::write(dir.join("wal.log"), b"").unwrap();

    let (recovered, stats) = recover(&dir, None).expect("salvage");
    assert!(stats.salvaged_tmp);
    let config = durable_config(spec, &dir, FaultPlan::none());
    let handle = server::start_resumed(
        config,
        ShardedMonitor::from_monitor(recovered, 4),
        stats.next_seq,
    )
    .expect("server resumes");
    let mut client = Client::connect(handle.local_addr(), TIMEOUT).expect("connects");
    match client.score(7).expect("score rpc") {
        Reply::Score(parsed) => assert_eq!(parsed.customer, 7),
        other => panic!("salvaged customer must be servable: {other:?}"),
    }
    handle.request_shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ops` appended to `dir`'s WAL as records `first..`.
fn log_records(dir: &Path, first: u64, ops: &[&str]) {
    use attrition_serve::wal::{Wal, WAL_FILE};
    let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Always, first).expect("open wal");
    for op in ops {
        wal.append(op).expect("append");
    }
}

/// Recovery must fall back past a corrupt checkpoint to an older valid
/// one while the log still holds the records in between (the crash hit
/// after the newer checkpoint's rename, before the WAL truncation), and
/// replay them.
#[test]
fn corrupt_binary_checkpoint_falls_back_to_older() {
    use attrition_serve::checkpoint;

    let dir = temp_dir("binfallback");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut monitor = StabilityMonitor::new(spec, StabilityParams::PAPER).with_max_explanations(5);
    monitor.ingest(
        CustomerId::new(1),
        Date::from_ymd(2012, 5, 2).unwrap(),
        &Basket::from_raw(&[1, 4]),
    );
    checkpoint::write_binary(&dir, 1, &monitor.snapshot_bytes()).expect("older checkpoint");

    monitor.ingest(
        CustomerId::new(2),
        Date::from_ymd(2012, 5, 3).unwrap(),
        &Basket::from_raw(&[2]),
    );
    let newer = checkpoint::write_binary(&dir, 2, &monitor.snapshot_bytes()).expect("newer");
    // Flip one bit in the newest checkpoint's body: its CRC must fail.
    let mut bytes = std::fs::read(&newer).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&newer, &bytes).unwrap();
    log_records(
        &dir,
        1,
        &["INGEST 1 2012-05-02 1 4", "INGEST 2 2012-05-03 2"],
    );

    let (recovered, stats) = recover(&dir, None).expect("fallback succeeds");
    assert_eq!(stats.corrupt_checkpoints, 1, "{stats:?}");
    assert_eq!(stats.checkpoint_lsn, Some(1));
    assert_eq!((stats.already_applied, stats.replayed), (1, 1), "{stats:?}");
    assert_eq!(recovered.snapshot(), monitor.snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint from a future format version is a corrupt checkpoint
/// (skipped with fallback, the log replaying what it covered), not a
/// panic and not a load.
#[test]
fn future_version_binary_checkpoint_is_skipped() {
    use attrition_serve::checkpoint;

    let dir = temp_dir("binversion");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut monitor = StabilityMonitor::new(spec, StabilityParams::PAPER).with_max_explanations(5);
    monitor.ingest(
        CustomerId::new(3),
        Date::from_ymd(2012, 5, 2).unwrap(),
        &Basket::from_raw(&[8]),
    );
    checkpoint::write_binary(&dir, 1, &monitor.snapshot_bytes()).expect("older checkpoint");

    monitor.ingest(
        CustomerId::new(4),
        Date::from_ymd(2012, 5, 3).unwrap(),
        &Basket::from_raw(&[9]),
    );
    let newer = checkpoint::write_binary(&dir, 2, &monitor.snapshot_bytes()).expect("newer");
    let mut bytes = std::fs::read(&newer).unwrap();
    bytes[7] = b'9'; // ATTRCKP9: framing from the future
    std::fs::write(&newer, &bytes).unwrap();
    log_records(&dir, 2, &["INGEST 4 2012-05-03 9"]);

    let (recovered, stats) = recover(&dir, None).expect("version skip succeeds");
    assert_eq!(stats.corrupt_checkpoints, 1, "{stats:?}");
    assert_eq!(stats.checkpoint_lsn, Some(1));
    assert_eq!(stats.replayed, 1, "{stats:?}");
    assert_eq!(recovered.snapshot(), monitor.snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every checkpoint empties the WAL, so records acknowledged since the
/// previous checkpoint can live in the newest checkpoint alone. When
/// that checkpoint is unreadable, recovery must refuse to continue from
/// the older one: serving it would drop acknowledged writes and reuse
/// their sequence numbers.
#[test]
fn acked_records_only_in_a_corrupt_checkpoint_fail_recovery() {
    use attrition_serve::checkpoint;
    use attrition_serve::recovery::RecoveryError;
    use attrition_serve::Engine;

    let dir = temp_dir("ackedgap");
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut dcfg = DurabilityConfig::new(dir.clone());
    dcfg.checkpoint_every_requests = 1;
    let engine = Engine::open(
        ShardedMonitor::new(4, spec, StabilityParams::PAPER, 5),
        None,
        Some(&dcfg),
        1,
    )
    .expect("engine opens");
    for customer in 1..=3 {
        let (_, reply) = engine.respond(&format!("INGEST {customer} 2012-05-02 1"));
        assert_eq!(reply, "OK 0", "customer {customer}");
    }
    drop(engine);
    let newest = checkpoint::path_for(&dir, 3);
    let mut bytes = std::fs::read(&newest).expect("checkpoint 3 exists");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&newest, &bytes).unwrap();

    match recover(&dir, None) {
        Err(RecoveryError::MissingRecords {
            restored: 2,
            first: 3,
            last: 3,
        }) => {}
        other => panic!("expected record 3 missing, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed fsync is not retried: it kills the WAL and stops the
/// engine, so live state stays the fold of the log. Record 2's sync
/// fails; its member is answered `ERR` but was applied, record 3 is
/// refused by the dead log, and the live `SCORE` is what recovering the
/// directory answers.
#[test]
fn a_failed_fsync_stops_the_engine_with_live_state_equal_to_the_log() {
    use attrition_serve::{Engine, Service};

    let dir = temp_dir("failsync");
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let mut dcfg = DurabilityConfig::new(dir.clone());
    dcfg.fault_plan = Some(FaultPlan::fail_sync_seq(2));
    let engine = Engine::open(
        ShardedMonitor::new(4, spec, StabilityParams::PAPER, 5),
        None,
        Some(&dcfg),
        1,
    )
    .expect("engine opens");
    let replies: Vec<String> = [
        "INGEST 1 2012-05-02 1",
        "INGEST 1 2012-06-02 2",
        "INGEST 1 2012-07-02 3",
    ]
    .iter()
    .map(|line| engine.respond(line).1)
    .collect();
    assert!(replies[0].starts_with("OK "), "{replies:?}");
    assert_eq!(
        replies[1],
        "ERR wal commit failed: injected fault: scheduled sync failure"
    );
    assert_eq!(
        replies[2],
        "ERR wal append failed: wal is dead: fsync failed: injected fault: scheduled sync failure"
    );
    assert!(engine.shutdown_requested(), "a dead wal stops the node");
    assert_eq!(engine.wal_last_seq(), 2);
    let live_score = engine.respond("SCORE 1").1;
    let live = engine.monitor().snapshot_bytes();
    let report = engine.shutdown_flush();
    assert!(
        report
            .checkpoint_error
            .is_some_and(|e| e.contains("scheduled sync failure")),
        "the shutdown error names the first failure"
    );
    drop(engine);

    let (recovered, stats) = recover(&dir, Some(&fallback(spec))).expect("recovery succeeds");
    assert_eq!(stats.replayed, 2);
    assert_eq!(recovered.snapshot_bytes(), live, "live == recovered");
    let restarted = Engine::open(ShardedMonitor::from_monitor(recovered, 2), None, None, 1)
        .expect("engine opens");
    assert_eq!(restarted.respond("SCORE 1").1, live_score);
    let _ = std::fs::remove_dir_all(&dir);
}
