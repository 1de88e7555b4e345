//! The failover proof at the binary level: a real `attrition serve
//! --wal-dir` primary and a real `attrition replicate` follower, two
//! processes over real TCP. The primary is SIGKILLed, the replica is
//! promoted with one `PROMOTE` line, and every SCORE the promoted node
//! serves must be **bit-identical** (`f64::to_bits`) to what the
//! primary acknowledged before dying — then the new primary accepts
//! writes of its own.

#![cfg(unix)]

use attrition_datagen::ScenarioConfig;
use attrition_serve::{Client, Reply};
use attrition_store::chronological;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("attrition_cli_repl_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Server {
    child: Child,
    addr: String,
    #[allow(dead_code)]
    stderr: BufReader<std::process::ChildStderr>,
    /// Held open so the process's shutdown summary has somewhere to go.
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

/// Spawn one `attrition` subcommand and wait for its two-line start
/// handshake: `recovery: …` on stderr, then `listening on …` on stdout.
fn spawn_node(args: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_attrition"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("node must start");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
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

/// Spawn `attrition serve --wal-dir`; `extra` appends/overrides flags.
fn spawn_primary(wal_dir: &Path, origin: &str, extra: &[&str]) -> Server {
    let mut args = vec![
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
    ];
    args.extend_from_slice(extra);
    spawn_node(&args)
}

/// Spawn `attrition replicate`; `extra` appends/overrides flags (the
/// rejoin test needs a long fetch interval and the `--rejoin` flag).
fn spawn_replica(wal_dir: &Path, origin: &str, primary_addr: &str, extra: &[&str]) -> Server {
    let mut args = vec![
        "replicate",
        "--primary",
        primary_addr,
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
        "--batch-max",
        "256",
    ];
    args.extend_from_slice(extra);
    spawn_node(&args)
}

/// Pull one numeric metric out of a raw `STATS` JSON payload.
fn stat(stats_json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = stats_json.find(&key)? + key.len();
    let digits: String = stats_json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pull `serve.repl.applied_seq` out of a raw `STATS` JSON payload.
fn applied_seq(stats_json: &str) -> Option<u64> {
    stat(stats_json, "serve.repl.applied_seq")
}

#[test]
fn two_process_failover_promotes_with_bit_identical_scores() {
    let primary_dir = temp_dir("primary");
    let replica_dir = temp_dir("replica");
    let _cleanup = RemoveOnDrop(vec![primary_dir.clone(), replica_dir.clone()]);
    let mut cfg = ScenarioConfig::small();
    cfg.n_loyal = 60;
    cfg.n_defectors = 60;
    cfg.n_months = 6;
    cfg.onset_month = 3;
    let dataset = attrition_datagen::generate(&cfg);
    let seg_store = dataset.segment_store();
    let receipts: Vec<_> = chronological(&seg_store).collect();
    let origin = cfg.start.to_string();

    let mut primary = spawn_primary(&primary_dir, &origin, &[]);
    let mut replica = spawn_replica(
        &replica_dir,
        &origin,
        &primary.addr,
        &["--fetch-interval-ms", "10"],
    );

    // Stream the whole dataset through the primary. Under
    // `--sync-policy always` every `OK` is durable — and therefore
    // shippable: the replication floor is the durable LSN.
    let mut client = Client::connect(&primary.addr, TIMEOUT).expect("primary connects");
    let mut acked = 0u64;
    for receipt in &receipts {
        let items: Vec<u32> = receipt.items.iter().map(|i| i.raw()).collect();
        match client
            .ingest(receipt.customer.raw(), receipt.date, &items)
            .expect("ingest rpc")
        {
            Reply::Closed(_) => acked += 1,
            other => panic!("unexpected ingest reply: {other:?}"),
        }
    }

    // Wait for the replica to apply every acknowledged record.
    let mut rclient = Client::connect(&replica.addr, TIMEOUT).expect("replica connects");
    let deadline = Instant::now() + TIMEOUT;
    loop {
        match rclient.send("STATS").expect("stats rpc") {
            Reply::Stats(json) => {
                if applied_seq(&json) == Some(acked) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "replica never caught up to LSN {acked}: {json}"
                );
            }
            other => panic!("unexpected stats reply: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // A replica is read-only until promoted.
    match rclient.send("INGEST 1 2012-05-02 10").expect("ingest rpc") {
        Reply::Err(message) => assert!(message.contains("read-only"), "{message}"),
        other => panic!("a replica must reject writes, got {other:?}"),
    }

    // Record the primary's answers for every customer, then kill it —
    // SIGKILL, no drain, no final checkpoint.
    let customers: Vec<u64> = {
        let mut ids: Vec<u64> = receipts.iter().map(|r| r.customer.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let mut expected = Vec::with_capacity(customers.len());
    for &customer in &customers {
        match client.score(customer).expect("score rpc") {
            Reply::Score(s) => expected.push((customer, s.window, s.value.to_bits())),
            other => panic!("unexpected score reply: {other:?}"),
        }
    }
    primary.child.kill().expect("SIGKILL");
    primary.child.wait().expect("reaped");
    drop(client);

    // One line of failover: the replica fsyncs, bumps its epoch
    // durably, and starts accepting writes.
    match rclient.send("PROMOTE").expect("promote rpc") {
        Reply::Ok(rest) => assert!(rest.starts_with("promoted 2 "), "{rest}"),
        other => panic!("unexpected promote reply: {other:?}"),
    }

    // Every score the dead primary acknowledged is served bit-identically.
    for (customer, window, bits) in &expected {
        match rclient.score(*customer).expect("score rpc") {
            Reply::Score(s) => {
                assert_eq!(s.window, *window, "customer {customer}");
                assert_eq!(
                    s.value.to_bits(),
                    *bits,
                    "customer {customer} diverged across failover"
                );
            }
            other => panic!("unexpected score reply: {other:?}"),
        }
    }

    // And the promoted node is a real primary: writes are accepted.
    let last = receipts.last().unwrap();
    let items: Vec<u32> = last.items.iter().map(|i| i.raw()).collect();
    match rclient
        .ingest(last.customer.raw(), last.date, &items)
        .expect("ingest rpc")
    {
        Reply::Closed(_) => {}
        other => panic!("a promoted replica must accept writes, got {other:?}"),
    }

    rclient.send("SHUTDOWN").expect("shutdown rpc");
    drop(rclient);
    let status = replica.child.wait().expect("replica must exit");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut replica.stderr, &mut rest).unwrap();
    assert!(
        status.success(),
        "graceful promoted shutdown exits zero: {rest}"
    );
}

/// The self-healing proof at the binary level: the SIGKILLed primary
/// comes back with `attrition replicate --rejoin` against the node that
/// replaced it. Its WAL holds acknowledged records the replica never
/// fetched — a real divergent suffix — and the handshake must discard
/// exactly those, re-bootstrap from the new primary, and serve SCOREs
/// bit-identical (`f64::to_bits`) to the new timeline's.
#[test]
fn sigkilled_primary_rejoins_and_serves_the_new_timeline_bit_identically() {
    let primary_dir = temp_dir("rejoin_primary");
    let replica_dir = temp_dir("rejoin_replica");
    let _cleanup = RemoveOnDrop(vec![primary_dir.clone(), replica_dir.clone()]);
    let mut cfg = ScenarioConfig::small();
    cfg.n_loyal = 40;
    cfg.n_defectors = 40;
    cfg.n_months = 6;
    cfg.onset_month = 3;
    let dataset = attrition_datagen::generate(&cfg);
    let seg_store = dataset.segment_store();
    let receipts: Vec<_> = chronological(&seg_store).collect();
    let origin = cfg.start.to_string();
    // Three chronological slices: A replicates everywhere, B is acked
    // by the primary but never fetched (the divergent suffix), C is the
    // new timeline written after the failover.
    let split_a = receipts.len() * 6 / 10;
    let split_b = receipts.len() * 8 / 10;

    let mut primary = spawn_primary(&primary_dir, &origin, &[]);
    let mut client = Client::connect(&primary.addr, TIMEOUT).expect("primary connects");
    let mut acked_a = 0u64;
    for receipt in &receipts[..split_a] {
        let items: Vec<u32> = receipt.items.iter().map(|i| i.raw()).collect();
        match client
            .ingest(receipt.customer.raw(), receipt.date, &items)
            .expect("ingest rpc")
        {
            Reply::Closed(_) => acked_a += 1,
            other => panic!("unexpected ingest reply: {other:?}"),
        }
    }

    // All of slice A is durable before the replica exists, so its
    // startup burst drains the whole slice (a fetch that applied
    // records loops immediately) and then — with a huge fetch interval
    // — sleeps far past the end of the test, so nothing of slice B is
    // ever shipped. Spawning the replica mid-slice would race: a fetch
    // landing between two ingests drains early and parks for the full
    // interval.
    let mut replica = spawn_replica(
        &replica_dir,
        &origin,
        &primary.addr,
        &["--fetch-interval-ms", "60000"],
    );

    // The replica holds all of slice A...
    let mut rclient = Client::connect(&replica.addr, TIMEOUT).expect("replica connects");
    let deadline = Instant::now() + TIMEOUT;
    loop {
        match rclient.send("STATS").expect("stats rpc") {
            Reply::Stats(json) => {
                if applied_seq(&json) == Some(acked_a) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "replica never caught up to LSN {acked_a}: {json}"
                );
            }
            other => panic!("unexpected stats reply: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // ...and has parked. The fetch that applied the last records fetches
    // again at once; only that fetch, from LSN `acked_a`, sets the
    // primary's lag gauge to 0. Writing B before it arrives would let B's
    // first durable records ship.
    let deadline = Instant::now() + TIMEOUT;
    loop {
        match client.send("STATS").expect("stats rpc") {
            Reply::Stats(json) => {
                if stat(&json, "serve.repl.lag_records") == Some(0) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "replica never fetched from LSN {acked_a}: {json}"
                );
            }
            other => panic!("unexpected stats reply: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // ...and slice B lands only on the primary: acknowledged durable
    // (sync=always), never shipped — then SIGKILL.
    let mut acked_b = 0u64;
    for receipt in &receipts[split_a..split_b] {
        let items: Vec<u32> = receipt.items.iter().map(|i| i.raw()).collect();
        match client
            .ingest(receipt.customer.raw(), receipt.date, &items)
            .expect("ingest rpc")
        {
            Reply::Closed(_) => acked_b += 1,
            other => panic!("unexpected ingest reply: {other:?}"),
        }
    }
    assert!(acked_b > 0, "the divergent suffix must be non-empty");
    primary.child.kill().expect("SIGKILL");
    primary.child.wait().expect("reaped");
    drop(client);

    // Failover at exactly LSN `acked_a`, then the new timeline: slice C
    // goes through the promoted node only.
    match rclient.send("PROMOTE").expect("promote rpc") {
        Reply::Ok(rest) => assert_eq!(rest, format!("promoted 2 {acked_a}")),
        other => panic!("unexpected promote reply: {other:?}"),
    }
    let mut acked_c = 0u64;
    for receipt in &receipts[split_b..] {
        let items: Vec<u32> = receipt.items.iter().map(|i| i.raw()).collect();
        match rclient
            .ingest(receipt.customer.raw(), receipt.date, &items)
            .expect("ingest rpc")
        {
            Reply::Closed(_) => acked_c += 1,
            other => panic!("unexpected ingest reply: {other:?}"),
        }
    }
    assert!(acked_c > 0, "the new timeline must move on");

    // The truth the rejoined node must reproduce, bit for bit.
    let customers: Vec<u64> = {
        let mut ids: Vec<u64> = receipts.iter().map(|r| r.customer.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let mut expected = Vec::with_capacity(customers.len());
    for &customer in &customers {
        match rclient.score(customer).expect("score rpc") {
            Reply::Score(s) => expected.push((customer, s.window, s.value.to_bits())),
            other => panic!("unexpected score reply: {other:?}"),
        }
    }

    // The deposed primary returns over its own WAL directory, pointed
    // at the node that replaced it. `--rejoin` runs the divergence
    // handshake before serving; the startup log names the discard.
    let mut rejoined = spawn_replica(
        &primary_dir,
        &origin,
        &replica.addr,
        &["--fetch-interval-ms", "10", "--rejoin"],
    );
    let mut rejoin_line = String::new();
    rejoined.stderr.read_line(&mut rejoin_line).unwrap();
    assert_eq!(
        rejoin_line.trim_end(),
        format!("rejoin: adopted epoch 2 ({acked_b} divergent records discarded)"),
        "the startup handshake must discard exactly the divergent suffix"
    );

    // It catches up to the full new timeline, and STATS exposes the
    // heal: the rejoin counter, the discarded-record count, the epoch.
    let mut jclient = Client::connect(&rejoined.addr, TIMEOUT).expect("rejoined node connects");
    let target = acked_a + acked_c;
    let deadline = Instant::now() + TIMEOUT;
    let stats_json = loop {
        match jclient.send("STATS").expect("stats rpc") {
            Reply::Stats(json) => {
                if applied_seq(&json) == Some(target) {
                    break json;
                }
                assert!(
                    Instant::now() < deadline,
                    "rejoined node never caught up to LSN {target}: {json}"
                );
            }
            other => panic!("unexpected stats reply: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(stat(&stats_json, "serve.repl.rejoins"), Some(1));
    assert_eq!(
        stat(&stats_json, "serve.repl.divergent_records_discarded"),
        Some(acked_b)
    );
    assert_eq!(stat(&stats_json, "serve.repl.epoch"), Some(2));

    // Every SCORE the new primary serves, the rejoined node serves
    // bit-identically — no trace of slice B anywhere.
    for (customer, window, bits) in &expected {
        match jclient.score(*customer).expect("score rpc") {
            Reply::Score(s) => {
                assert_eq!(s.window, *window, "customer {customer}");
                assert_eq!(
                    s.value.to_bits(),
                    *bits,
                    "customer {customer} diverged after the rejoin"
                );
            }
            other => panic!("unexpected score reply: {other:?}"),
        }
    }

    // And it is an ordinary replica again: read-only until promoted.
    match jclient.send("INGEST 1 2012-05-02 10").expect("ingest rpc") {
        Reply::Err(message) => assert!(message.contains("read-only"), "{message}"),
        other => panic!("a rejoined replica must reject writes, got {other:?}"),
    }

    drop(jclient);
    rejoined.child.kill().expect("kill rejoined node");
    rejoined.child.wait().expect("reaped");
    rclient.send("SHUTDOWN").expect("shutdown rpc");
    drop(rclient);
    let status = replica.child.wait().expect("promoted node must exit");
    assert!(status.success(), "graceful promoted shutdown exits zero");
}

/// A raw protocol connection: replies as the exact bytes the server
/// wrote, so batched and unbatched answers compare byte for byte.
struct Raw {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let writer = TcpStream::connect(addr).expect("raw connection");
        writer.set_read_timeout(Some(TIMEOUT)).unwrap();
        writer.set_nodelay(true).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Raw { writer, reader }
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply line");
        assert!(line.ends_with('\n'), "truncated reply {line:?}");
        line
    }

    /// One member's reply: its first line plus the `CLOSED` lines an
    /// `OK <n>` announces, newlines included.
    fn reply(&mut self) -> String {
        let mut reply = self.line();
        let fields: Vec<&str> = reply.split_ascii_whitespace().collect();
        let follow = match fields.as_slice() {
            ["OK", n] => n.parse().unwrap_or(0),
            _ => 0,
        };
        for _ in 0..follow {
            reply += &self.line();
        }
        reply
    }

    fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.reply()
    }

    fn send_batch(&mut self, members: &[String]) -> Vec<String> {
        let mut frame = format!("BATCH {}\n", members.len());
        for member in members {
            frame += member;
            frame.push('\n');
        }
        self.writer.write_all(frame.as_bytes()).unwrap();
        assert_eq!(self.line(), format!("OKBATCH {}\n", members.len()));
        members.iter().map(|_| self.reply()).collect()
    }
}

/// Removes directories when dropped, so a failing assert cleans up too.
struct RemoveOnDrop(Vec<PathBuf>);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn stats(raw: &mut Raw) -> String {
    raw.send("STATS")
}

/// The shipped durable server group-commits `BATCH` frames: ten frames
/// of 64 `INGEST`s cost ten fsyncs, not 640, and every member answers
/// byte-identically to its line sent on its own — also when a frame
/// mixes the replication verbs a primary or a replica answers itself
/// with the ones its engine executes.
#[test]
fn shipped_primary_group_commits_batch_frames_byte_identically() {
    let batched_dir = temp_dir("batched");
    let single_dir = temp_dir("single");
    let replica_b_dir = temp_dir("replica_b");
    let replica_s_dir = temp_dir("replica_s");
    let _cleanup = RemoveOnDrop(vec![
        batched_dir.clone(),
        single_dir.clone(),
        replica_b_dir.clone(),
        replica_s_dir.clone(),
    ]);
    let origin = "2012-05-01";
    let quiet = ["--checkpoint-every", "0", "--checkpoint-secs", "0"];
    let batched = spawn_primary(&batched_dir, origin, &quiet);
    let single = spawn_primary(&single_dir, origin, &quiet);
    let (mut b, mut s) = (Raw::connect(&batched.addr), Raw::connect(&single.addr));

    // 40 customers over four months: later receipts close earlier
    // windows, so replies carry CLOSED lines too.
    let lines: Vec<String> = (0..640u32)
        .map(|i| {
            let (customer, step) = (1 + i % 40, i / 40);
            let (month, day) = (5 + step / 4, 1 + (step % 4) * 7);
            format!(
                "INGEST {customer} 2012-{month:02}-{day:02} {} {}",
                1 + i % 7,
                10 + (i * 3) % 11
            )
        })
        .collect();
    for frame in lines.chunks(64) {
        let replies = b.send_batch(frame);
        for (line, reply) in frame.iter().zip(replies) {
            assert!(reply.starts_with("OK "), "{line} -> {reply}");
            assert_eq!(reply, s.send(line), "{line}");
        }
    }
    let json = stats(&mut b);
    assert_eq!(stat(&json, "serve.wal.appends"), Some(640), "{json}");
    assert_eq!(stat(&json, "serve.wal.fsyncs"), Some(10), "{json}");
    assert_eq!(stat(&json, "serve.wal.group_commits"), Some(10), "{json}");
    for customer in 1..=40 {
        let score = format!("SCORE {customer}");
        assert_eq!(b.send(&score), s.send(&score), "{score}");
    }

    // The primary's own verbs in member position, among engine verbs. A
    // REPL there answers one ERR line (a shipment spans lines no member
    // reader expects); the other members answer as on their own.
    let mixed: Vec<String> = [
        "INGEST 41 2012-08-22 3 4",
        "REPL 1 640 8",
        "SCORE 41",
        "REJOIN 1 0",
        "INGEST 42 2012-08-22 5",
        "PROMOTE",
        "INGEST 41 2012-09-01 4",
        "SCORE 41",
    ]
    .map(str::to_owned)
    .to_vec();
    let replies = b.send_batch(&mixed);
    assert_eq!(replies[1], "ERR REPL not allowed in BATCH\n");
    for (line, reply) in mixed
        .iter()
        .zip(replies)
        .filter(|(line, _)| !line.starts_with("REPL"))
    {
        assert_eq!(reply, s.send(line), "{line}");
    }

    // On a replica: writes are read-only until a PROMOTE inside the
    // same frame, and accepted after it.
    let replica_b = spawn_replica(
        &replica_b_dir,
        origin,
        &batched.addr,
        &["--fetch-interval-ms", "10"],
    );
    let replica_s = spawn_replica(
        &replica_s_dir,
        origin,
        &single.addr,
        &["--fetch-interval-ms", "10"],
    );
    let (mut rb, mut rs) = (Raw::connect(&replica_b.addr), Raw::connect(&replica_s.addr));
    let deadline = Instant::now() + TIMEOUT;
    while applied_seq(&stats(&mut rb)) != Some(643) || applied_seq(&stats(&mut rs)) != Some(643) {
        assert!(
            Instant::now() < deadline,
            "replicas never caught up to LSN 643"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mixed: Vec<String> = [
        "INGEST 43 2012-09-02 1",
        "FLUSH 2012-09-01",
        "SCORE 41",
        "PROMOTE",
        "INGEST 43 2012-09-03 2",
        "SCORE 43",
    ]
    .map(str::to_owned)
    .to_vec();
    let replies = rb.send_batch(&mixed);
    assert!(replies[0].starts_with("ERR read-only"), "{}", replies[0]);
    assert_eq!(replies[3], "OK promoted 2 643\n");
    assert!(replies[4].starts_with("OK "), "{}", replies[4]);
    for (line, reply) in mixed.iter().zip(replies) {
        assert_eq!(reply, rs.send(line), "{line}");
    }
}
