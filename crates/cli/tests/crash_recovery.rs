//! The paper-grade durability proof at the binary level: a real
//! `attrition serve --wal-dir` process is SIGKILLed mid-stream — no
//! drain, no shutdown checkpoint — restarted on the same directory, and
//! every SCORE it then serves must be **bit-identical** (`f64::to_bits`)
//! to an offline monitor that processed exactly the acknowledged
//! ingests. Scores travel as shortest-roundtrip decimal text, so the
//! parsed values compare exactly.

#![cfg(unix)]

use attrition_core::{StabilityMonitor, StabilityParams};
use attrition_datagen::ScenarioConfig;
use attrition_serve::{Client, Reply};
use attrition_store::chronological;
use attrition_store::WindowSpec;
use attrition_types::Basket;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("attrition_cli_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Server {
    child: Child,
    addr: String,
    stderr: BufReader<std::process::ChildStderr>,
    /// Held open so the server's shutdown summary has somewhere to go.
    #[allow(dead_code)]
    stdout: BufReader<std::process::ChildStdout>,
}

/// A failing assertion must not leave the process running (it holds a
/// port and a WAL directory the next run reuses): kill and reap it.
impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawn `attrition serve` on the WAL directory and wait for it to bind.
fn spawn_serve(wal_dir: &Path, origin: &str) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_attrition"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--origin",
            origin,
            "--window",
            "1",
            "--wal-dir",
            wal_dir.to_str().unwrap(),
            "--sync-policy",
            "always",
            "--checkpoint-every",
            "64",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve must start");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    // The recovery summary is printed (to stderr) before the listener
    // binds; every start, even the first, states what it recovered.
    let mut recovery_line = String::new();
    stderr.read_line(&mut recovery_line).unwrap();
    assert!(
        recovery_line.starts_with("recovery: "),
        "expected the recovery log line first, got {recovery_line:?}"
    );
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_owned();
    Server {
        child,
        addr,
        stderr,
        stdout,
    }
}

#[test]
fn sigkill_mid_stream_then_restart_serves_bit_identical_scores() {
    let dir = temp_dir("sigkill");
    // 200 customers over 8 months, one-month windows.
    let mut cfg = ScenarioConfig::small();
    cfg.n_loyal = 100;
    cfg.n_defectors = 100;
    cfg.n_months = 8;
    cfg.onset_month = 4;
    let dataset = attrition_datagen::generate(&cfg);
    let seg_store = dataset.segment_store();
    let receipts: Vec<_> = chronological(&seg_store).collect();
    let origin = cfg.start.to_string();
    let spec = WindowSpec::months(cfg.start, 1);

    // First server: stream the first ~60% of receipts, then SIGKILL.
    // Every reply we read is an acknowledged, WAL-fsynced request; the
    // offline reference applies exactly those.
    let mut server = spawn_serve(&dir, &origin);
    let mut client = Client::connect(&server.addr, TIMEOUT).expect("connects");
    let mut reference = StabilityMonitor::new(spec, StabilityParams::PAPER);
    let killed_at = receipts.len() * 6 / 10;
    for receipt in &receipts[..killed_at] {
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
    // kill(2) with SIGKILL: the process gets no chance to drain, flush
    // or checkpoint — whatever the WAL holds is all that survives.
    server.child.kill().expect("SIGKILL");
    let status = server.child.wait().expect("reaped");
    assert!(!status.success(), "SIGKILL is not a clean exit");
    drop(client);

    // Second server on the same directory: recovery must replay the
    // WAL tail over the last periodic checkpoint.
    let mut server = spawn_serve(&dir, &origin);
    let mut client = Client::connect(&server.addr, TIMEOUT).expect("reconnects");

    // Every customer acked before the kill scores bit-identically to
    // the offline reference; nothing more, nothing less survived.
    let mut scored = 0u64;
    for customer in reference.customer_ids() {
        let expected = reference.preview(customer).expect("tracked offline");
        match client.score(customer.raw()).expect("score rpc") {
            Reply::Score(s) => {
                assert_eq!(s.customer, customer.raw());
                assert_eq!(
                    s.window,
                    expected.window.raw(),
                    "customer {}",
                    customer.raw()
                );
                assert_eq!(
                    s.value.to_bits(),
                    expected.value.to_bits(),
                    "customer {} diverged after crash recovery",
                    customer.raw()
                );
                scored += 1;
            }
            other => panic!("unexpected score reply: {other:?}"),
        }
    }
    assert!(
        scored >= 190,
        "the kill point must leave most of the 200 customers live"
    );

    // The stream continues where it left off: ingest the rest, then the
    // previews still agree — recovery really reproduced the monitor,
    // not just a read-only lookalike.
    for receipt in &receipts[killed_at..] {
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
    for customer in reference.customer_ids().into_iter().take(10) {
        let expected = reference.preview(customer).expect("tracked offline");
        match client.score(customer.raw()).expect("score rpc") {
            Reply::Score(s) => assert_eq!(s.value.to_bits(), expected.value.to_bits()),
            other => panic!("unexpected score reply: {other:?}"),
        }
    }

    client.send("SHUTDOWN").expect("shutdown rpc");
    let status = server.child.wait().expect("serve must exit");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut server.stderr, &mut rest).unwrap();
    assert!(
        status.success(),
        "graceful durable shutdown exits zero: {rest}"
    );
    assert!(
        !rest.contains("checkpoint failed"),
        "shutdown checkpoint must succeed: {rest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
