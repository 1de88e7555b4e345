//! The real server as a child process, a raw line client, and the
//! closed- and open-loop load executors.
//!
//! Replies are compared byte for byte with the expected ones as they
//! arrive. A run times each request from when it was sent (closed loop)
//! or from when it was due (open loop), so a stall also counts against
//! the requests queued behind it.

use crate::gen::{Stream, Verb};
use crate::util::{proc_status_bytes, wait_until};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Monitor shards of every server the benchmark starts (the default).
pub const SHARDS: usize = 8;
/// Worker threads of every server the benchmark starts (the default).
pub const WORKERS: usize = 4;
/// The flush policy of every workload.
pub const SYNC_POLICY: &str = "always";

/// `attrition serve` running as a child process on a WAL directory.
pub struct Server {
    child: Child,
    /// Held open so the server's exit summary never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub pid: u32,
}

impl Server {
    /// Start the server and wait until it listens (after recovery).
    pub fn spawn(bin: &Path, wal_dir: &Path, window_months: u32, log: &Path) -> Server {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .expect("open server log");
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--origin", "2012-05-01"])
            .args(["--window", &window_months.to_string()])
            .arg("--wal-dir")
            .arg(wal_dir)
            .args(["--sync-policy", SYNC_POLICY])
            .args(["--checkpoint-every", "0", "--checkpoint-secs", "0"])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--read-timeout-ms", "60000"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break Some(addr.to_owned());
                    }
                }
                _ => break None,
            }
        };
        match addr {
            Some(addr) => Server {
                child,
                _stdout: stdout,
                addr,
                pid,
            },
            None => {
                let _ = child.kill();
                let status = child.wait();
                panic!("server exited before listening ({status:?}); see its log");
            }
        }
    }

    /// The server's own resident set, read from its `/proc` entry.
    pub fn rss_bytes(&self) -> u64 {
        proc_status_bytes(self.pid, "VmRSS:").expect("server /proc status")
    }

    /// Crash the server (SIGKILL) and reap it.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// `SHUTDOWN`, then wait for the final checkpoint and a clean exit.
    pub fn shutdown(mut self) -> bool {
        let mut conn = Conn::open(&self.addr);
        let reply = conn.call("SHUTDOWN");
        drop(conn);
        let status = self.child.wait().expect("wait for server");
        reply == "OK draining" && status.success()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One connection speaking raw protocol lines.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::with_capacity(1 << 16, stream),
            line: String::new(),
        }
    }

    pub fn send(&mut self, line: &str) {
        self.writer
            .write_all(line.as_bytes())
            .expect("write request");
        self.writer.write_all(b"\n").expect("write request");
    }

    pub fn flush(&mut self) {
        self.writer.flush().expect("flush requests");
    }

    /// Read one reply: a line, plus `n` more after `OK <n>`.
    pub fn read_reply(&mut self, out: &mut String) {
        out.clear();
        self.read_line_into(out);
        let more = out
            .strip_prefix("OK ")
            .and_then(|rest| rest.parse::<usize>().ok())
            .unwrap_or(0);
        for _ in 0..more {
            out.push('\n');
            self.read_line_into(out);
        }
    }

    fn read_line_into(&mut self, out: &mut String) {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .expect("read reply from server");
        assert!(n > 0, "server closed the connection");
        out.push_str(self.line.trim_end_matches(['\r', '\n']));
    }

    /// Send one line and read its reply.
    pub fn call(&mut self, line: &str) -> String {
        self.send(line);
        self.flush();
        let mut out = String::new();
        self.read_reply(&mut out);
        out
    }

    /// Write one `BATCH` frame of `members` (not flushed).
    pub fn send_frame<'a>(&mut self, members: impl ExactSizeIterator<Item = &'a str>) {
        let _ = writeln!(self.writer, "BATCH {}", members.len());
        for m in members {
            self.send(m);
        }
    }

    /// Read an `OKBATCH <n>` header, returning `n` (or the bad line).
    pub fn read_frame_header(&mut self) -> Result<usize, String> {
        let mut head = String::new();
        self.read_line_into(&mut head);
        head.strip_prefix("OKBATCH ")
            .and_then(|n| n.parse().ok())
            .ok_or(head)
    }

    /// Split into the read and write halves for a sender/receiver pair.
    fn split(self) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
        (self.reader, self.writer)
    }
}

/// What one phase of load measured.
#[derive(Default)]
pub struct PhaseResult {
    /// Requests attempted.
    pub requests: u64,
    /// Replies that differ from the expected bytes.
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// Per request (per frame when batched): when it was sent (closed
    /// loop) or due (open loop), in s since the phase started, and its
    /// latency in ms.
    pub latency_ms: Vec<(f64, f64)>,
    /// Per reply: when it completed, in s since the phase started, and
    /// how many requests it completed.
    pub done: Vec<(f64, u32)>,
    /// How late each send left against its due time, in ms (open loop).
    pub late_ms: Vec<f64>,
}

impl PhaseResult {
    fn absorb(&mut self, other: PhaseResult) {
        self.requests += other.requests;
        self.mismatches += other.mismatches;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
        self.latency_ms.extend(other.latency_ms);
        self.done.extend(other.done);
        self.late_ms.extend(other.late_ms);
    }

    fn check(&mut self, line: &str, got: &str, expect: &str) {
        if got != expect {
            self.mismatches += 1;
            if self.first_mismatch.is_none() {
                self.first_mismatch = Some(format!(
                    "request {line:?}: got {:?}, expected {:?}",
                    clip(got),
                    clip(expect)
                ));
            }
        }
    }
}

fn clip(s: &str) -> String {
    s.chars().take(200).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn secs(t: Instant, t0: Instant) -> f64 {
    t.saturating_duration_since(t0).as_secs_f64()
}

/// Single-line requests over `conns` connections. Each connection owns
/// its customers' requests; at a `FLUSH` every connection finishes the
/// requests before it, connection 0 sends it, and all wait for its
/// reply. With `rate` set, request `i` of the stream is due at
/// `t0 + i / rate` (open loop); otherwise each connection sends as soon
/// as its previous reply arrived (closed loop).
pub fn run_lines(addr: &str, stream: &Stream, conns: usize, rate: Option<f64>) -> PhaseResult {
    let barrier = Barrier::new(conns);
    let total = Mutex::new(PhaseResult::default());
    let mut links: Vec<Conn> = (0..conns).map(|_| Conn::open(addr)).collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for (me, conn) in links.iter_mut().enumerate() {
            let (barrier, total) = (&barrier, &total);
            scope.spawn(move || {
                let mut r = PhaseResult::default();
                let mut reply = String::new();
                let mut exchange = |r: &mut PhaseResult, conn: &mut Conn, i: usize| {
                    let req = &stream.reqs[i];
                    let start = match rate {
                        Some(rate) => {
                            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                            wait_until(due);
                            r.late_ms
                                .push(ms(Instant::now().saturating_duration_since(due)));
                            due
                        }
                        None => Instant::now(),
                    };
                    conn.send(&req.line);
                    conn.flush();
                    conn.read_reply(&mut reply);
                    let end = Instant::now();
                    r.latency_ms.push((secs(start, t0), ms(end - start)));
                    r.done.push((secs(end, t0), 1));
                    r.requests += 1;
                    r.check(&req.line, &reply, &stream.expect[i]);
                };
                wait_until(t0);
                for (i, req) in stream.reqs.iter().enumerate() {
                    if req.verb == Verb::Flush {
                        barrier.wait();
                        if me == 0 {
                            exchange(&mut r, conn, i);
                        }
                        barrier.wait();
                    } else if req.conn == me {
                        exchange(&mut r, conn, i);
                    }
                }
                total.lock().expect("no panics while held").absorb(r);
            });
        }
    });
    total.into_inner().expect("no panics while held")
}

/// `BATCH <batch>` frames over one pipelined connection. Closed loop:
/// at most `window` frames in flight. Open loop (`rate` in frames per
/// second): frame `i` is sent at `t0 + i / rate` by a sender thread
/// while a receiver thread times each reply from the frame's due time.
pub fn run_frames(
    addr: &str,
    stream: &Stream,
    batch: usize,
    window: usize,
    rate: Option<f64>,
) -> PhaseResult {
    let frames: Vec<std::ops::Range<usize>> = (0..stream.len())
        .step_by(batch)
        .map(|s| s..(s + batch).min(stream.len()))
        .collect();
    let conn = Conn::open(addr);
    match rate {
        None => frames_closed(conn, stream, &frames, window),
        Some(rate) => frames_open(conn, stream, &frames, rate),
    }
}

fn frame_members<'a>(
    stream: &'a Stream,
    range: &std::ops::Range<usize>,
) -> impl ExactSizeIterator<Item = &'a str> {
    stream.reqs[range.clone()].iter().map(|r| r.line.as_str())
}

fn read_frame(
    conn: &mut Conn,
    stream: &Stream,
    range: &std::ops::Range<usize>,
    r: &mut PhaseResult,
    reply: &mut String,
) {
    match conn.read_frame_header() {
        Ok(n) if n == range.len() => {
            for i in range.clone() {
                conn.read_reply(reply);
                r.check(&stream.reqs[i].line, reply, &stream.expect[i]);
            }
        }
        Ok(n) => panic!("frame of {} members answered OKBATCH {n}", range.len()),
        Err(head) => panic!("frame rejected: {head:?}"),
    }
    r.requests += range.len() as u64;
}

fn frames_closed(
    mut conn: Conn,
    stream: &Stream,
    frames: &[std::ops::Range<usize>],
    window: usize,
) -> PhaseResult {
    let mut r = PhaseResult::default();
    let mut reply = String::new();
    let mut sent_at = std::collections::VecDeque::new();
    let t0 = Instant::now();
    let mut next = 0;
    for (done, range) in frames.iter().enumerate() {
        while next < frames.len() && next < done + window {
            conn.send_frame(frame_members(stream, &frames[next]));
            conn.flush();
            sent_at.push_back(Instant::now());
            next += 1;
        }
        read_frame(&mut conn, stream, range, &mut r, &mut reply);
        let sent = sent_at.pop_front().expect("a frame is in flight");
        let end = Instant::now();
        r.latency_ms.push((secs(sent, t0), ms(end - sent)));
        r.done.push((secs(end, t0), range.len() as u32));
    }
    r
}

fn frames_open(
    conn: Conn,
    stream: &Stream,
    frames: &[std::ops::Range<usize>],
    rate: f64,
) -> PhaseResult {
    let (reader, writer) = conn.split();
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let (late, mut r) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut tx = Conn::from_halves_writer(writer);
            let mut late = Vec::with_capacity(frames.len());
            for (i, range) in frames.iter().enumerate() {
                wait_until(due(i));
                late.push(ms(Instant::now().saturating_duration_since(due(i))));
                tx.send_frame(frame_members(stream, range));
                tx.flush();
            }
            late
        });
        let mut rx = Conn::from_halves_reader(reader);
        let mut r = PhaseResult::default();
        let mut reply = String::new();
        for (i, range) in frames.iter().enumerate() {
            read_frame(&mut rx, stream, range, &mut r, &mut reply);
            let end = Instant::now();
            r.latency_ms
                .push((secs(due(i), t0), ms(end.saturating_duration_since(due(i)))));
            r.done.push((secs(end, t0), range.len() as u32));
        }
        (sender.join().expect("sender thread"), r)
    });
    r.late_ms = late;
    r
}

impl Conn {
    fn from_halves_writer(writer: BufWriter<TcpStream>) -> Conn {
        let stream = writer.get_ref().try_clone().expect("clone stream");
        Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        }
    }

    fn from_halves_reader(reader: BufReader<TcpStream>) -> Conn {
        let stream = reader.get_ref().try_clone().expect("clone stream");
        Conn {
            reader,
            writer: BufWriter::new(stream),
            line: String::new(),
        }
    }
}

/// `SCORE` every customer in `customers` over one connection (frames of
/// 64) and compare each reply with `expect(customer)`. Returns the
/// mismatching lines.
pub fn score_all(addr: &str, customers: &[u64], expect: impl Fn(u64) -> String) -> Vec<String> {
    let mut conn = Conn::open(addr);
    let mut bad = Vec::new();
    let mut reply = String::new();
    for chunk in customers.chunks(64) {
        let lines: Vec<String> = chunk.iter().map(|c| format!("SCORE {c}")).collect();
        conn.send_frame(lines.iter().map(String::as_str));
        conn.flush();
        let n = conn.read_frame_header().expect("OKBATCH header");
        assert_eq!(n, chunk.len());
        for &c in chunk {
            conn.read_reply(&mut reply);
            let want = expect(c);
            if reply != want {
                bad.push(format!("SCORE {c}: got {reply:?}, expected {want:?}"));
            }
        }
    }
    bad
}

/// Time from starting the server on `wal_dir` to the reply of its first
/// `SCORE`; returns the running server, the time, and the reply.
pub fn restart(
    bin: &Path,
    wal_dir: &Path,
    window_months: u32,
    log: &Path,
    customer: u64,
) -> (Server, Duration, String) {
    let t = Instant::now();
    let server = Server::spawn(bin, wal_dir, window_months, log);
    let mut conn = Conn::open(&server.addr);
    let reply = conn.call(&format!("SCORE {customer}"));
    (server, t.elapsed(), reply)
}

/// The newest checkpoint's body in `dir`.
pub fn newest_checkpoint(dir: &Path) -> Option<Vec<u8>> {
    let (_, path): (u64, PathBuf) = attrition_serve::checkpoint::list(dir)
        .ok()?
        .into_iter()
        .next()?;
    attrition_serve::checkpoint::read(&path)
        .ok()
        .map(|c| c.body)
}
