//! The TCP server: accept loop, connection handling, graceful shutdown.
//!
//! One acceptor thread owns the listener; each accepted connection
//! becomes a job on the bounded [`ThreadPool`](crate::pool::ThreadPool).
//! When the pool is saturated the connection is answered `ERR busy` and
//! dropped immediately (see the pool's backpressure contract). A
//! `SHUTDOWN` request — or SIGINT, via [`install_sigint_handler`] —
//! stops the acceptor, drains every in-flight connection (each finishes
//! its current request; idle connections close within the read
//! timeout), writes a final checkpoint, and returns a [`ServerSummary`].
//!
//! The request semantics themselves — protocol execution, WAL,
//! checkpoint triggers — live in the transport-independent
//! [`Engine`](crate::engine::Engine); this module is only the real
//! network front-end for it (the deterministic simulator is another).
//!
//! ## Durability
//!
//! With a [`DurabilityConfig`] set, every mutating request (`INGEST`,
//! `FLUSH`) the monitor accepts is appended to the [write-ahead
//! log](crate::wal) *before* it is applied and acknowledged, and the
//! full state is periodically [checkpointed](crate::checkpoint)
//! crash-atomically, after which the WAL is truncated. The durability
//! lock is held across check + append + apply, so the log order equals
//! the apply order and a checkpoint always cuts at an exact LSN —
//! mutating requests serialize on that lock (reads do not), which is the
//! honest cost of a single log file: under
//! `--sync-policy always` the fsync, not the lock, dominates. A client
//! amortizes that fsync with `BATCH` frames (DESIGN §14): all mutating
//! members of one frame share one group-commit fsync. Every frame — a
//! single line is a frame of one — reaches the service through the one
//! method [`Service::execute`], so no front-end can fall back to one
//! fsync per member.

use crate::engine::{BatchScratch, Engine, MemberOutcome, ShutdownReport};
use crate::pool::ThreadPool;
use crate::protocol::{parse_batch_header, BatchLines, PackedLines, ParseError};
use crate::shard::ShardedMonitor;
use attrition_core::StabilityParams;
use attrition_obs::Counter;
use attrition_store::WindowSpec;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::engine::DurabilityConfig;

/// What the accept loop needs from a request executor. [`Engine`] is
/// the canonical implementation; a replica front-end (or any other
/// request core that speaks the newline protocol) plugs into the same
/// TCP machinery through [`start_service`] by implementing this.
pub trait Service: Send + Sync {
    /// Execute one frame — a single request line is a frame of one, a
    /// `BATCH n` frame's members a frame of n — with one WAL group
    /// commit for its mutating members. Appends each member's response
    /// to `out`, each followed by `'\n'`, and one [`MemberOutcome`] per
    /// member to `scratch` after those already there (see
    /// [`BatchScratch::begin_frame`]). A front-end with verbs of its own
    /// implements this with [`execute_split`].
    fn execute(&self, frame: &dyn BatchLines, scratch: &mut BatchScratch, out: &mut String);
    /// One request line as a frame of one: `(verb, response)`, the
    /// response possibly multi-line but without a trailing newline.
    fn respond(&self, line: &str) -> (&'static str, String) {
        let mut scratch = BatchScratch::new();
        let mut out = String::new();
        self.execute(
            &PackedLines::new(line, &[(0, line.len())]),
            &mut scratch,
            &mut out,
        );
        out.pop();
        (scratch.outcomes()[0].verb, out)
    }
    /// One `BATCH` frame: appends `OKBATCH <n>` plus every member
    /// response (`'\n'`-joined, no trailing newline) to `out`.
    fn respond_batch(&self, batch: &dyn BatchLines, scratch: &mut BatchScratch, out: &mut String) {
        if attrition_obs::enabled() {
            attrition_obs::global()
                .histogram("serve.batch.size")
                .observe(batch.len() as f64);
        }
        let _ = writeln!(out, "OKBATCH {}", batch.len());
        scratch.begin_frame();
        scratch.batched = true;
        self.execute(batch, scratch, out);
        out.pop();
    }
    /// Ask the service to drain: connection loops poll
    /// [`shutdown_requested`](Service::shutdown_requested) and stop.
    fn request_shutdown(&self);
    /// Whether shutdown was requested (via `SHUTDOWN` or
    /// [`request_shutdown`](Service::request_shutdown)).
    fn shutdown_requested(&self) -> bool;
    /// Requests executed (including ones answered `ERR`).
    fn requests(&self) -> u64;
    /// Requests answered `ERR`.
    fn errors(&self) -> u64;
    /// Customers tracked right now.
    fn num_customers(&self) -> usize;
    /// The shutdown epilogue: final checkpoint + snapshot, error
    /// surfacing, and lifetime counters for the summary.
    fn shutdown_flush(&self) -> ShutdownReport;
}

/// [`Service::execute`] for a front-end that answers some verbs itself
/// (a primary's `REPL`, a replica's `PROMOTE`, …): each member `own`
/// claims is answered by `answer` in member position, and each maximal
/// run of the other members goes to `inner` as one sub-frame — one
/// group commit — so every reply is byte-identical to sending the lines
/// one at a time. `own` is asked member by member, so a `PROMOTE`
/// changes what the members after it are. `answer` also gets whether
/// the frame is a `BATCH`. The members answered here are counted on
/// `(requests, errors)`.
pub fn execute_split(
    frame: &dyn BatchLines,
    scratch: &mut BatchScratch,
    out: &mut String,
    own: impl Fn(&str) -> bool,
    answer: impl Fn(&str, bool) -> (&'static str, String),
    (requests, errors): (&AtomicU64, &AtomicU64),
    inner: impl Fn(&dyn BatchLines, &mut BatchScratch, &mut String),
) {
    let n = frame.len();
    let mut start = 0;
    while start < n {
        let line = frame.line(start);
        if own(line) {
            let (verb, response) = answer(line, scratch.batched);
            requests.fetch_add(1, Ordering::Relaxed);
            if response.starts_with("ERR") {
                errors.fetch_add(1, Ordering::Relaxed);
            }
            out.push_str(&response);
            out.push('\n');
            scratch.outcomes.push(MemberOutcome { verb, seq: 0 });
            start += 1;
        } else {
            let end = (start + 1..n).find(|&i| own(frame.line(i))).unwrap_or(n);
            inner(&SubFrame { frame, start, end }, scratch, out);
            start = end;
        }
    }
}

/// Members `start..end` of a frame, as a frame of their own.
struct SubFrame<'a> {
    frame: &'a dyn BatchLines,
    start: usize,
    end: usize,
}

impl BatchLines for SubFrame<'_> {
    fn len(&self) -> usize {
        self.end - self.start
    }
    fn line(&self, i: usize) -> &str {
        self.frame.line(self.start + i)
    }
}

/// Longest accepted request line (bytes, excluding the newline). A
/// frame that grows past this is answered `ERR line too long` and
/// discarded up to its newline — the connection stays usable, and the
/// server never buffers an attacker-sized line.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Everything the server needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7711` (`:0` for an ephemeral
    /// port — read it back from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Number of monitor shards (each behind its own lock).
    pub n_shards: usize,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Connections waiting for a worker before `ERR busy` rejections
    /// start.
    pub queue_capacity: usize,
    /// Idle time after which a connection is closed.
    pub read_timeout: Duration,
    /// Where `SNAPSHOT` and shutdown write the legacy single-file
    /// snapshot; `None` disables it (`SNAPSHOT` answers `ERR`). The
    /// write is atomic (tmp + fsync + rename) but carries no WAL — for
    /// real durability configure [`durability`](ServerConfig::durability).
    pub snapshot_path: Option<PathBuf>,
    /// WAL + periodic checkpointing; `None` runs the server in-memory
    /// (the pre-durability behavior).
    pub durability: Option<DurabilityConfig>,
    /// The window grid every shard scores on.
    pub spec: WindowSpec,
    /// Significance parameters.
    pub params: StabilityParams,
    /// Lost products retained per closed-window explanation.
    pub max_explanations: usize,
}

impl ServerConfig {
    /// Defaults sized for a small deployment: 8 shards, 4 workers,
    /// a 64-connection queue, 5 s read timeout, no snapshot path.
    pub fn new(addr: impl Into<String>, spec: WindowSpec, params: StabilityParams) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            n_shards: 8,
            workers: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            snapshot_path: None,
            durability: None,
            spec,
            params,
            max_explanations: 5,
        }
    }
}

/// What a drained server reports back.
#[derive(Debug, Clone)]
pub struct ServerSummary {
    /// Requests served (including ones answered `ERR`).
    pub requests: u64,
    /// Requests answered `ERR` (parse failures, out-of-order ingests, …).
    pub errors: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections rejected with `ERR busy`.
    pub rejected_busy: u64,
    /// Customers tracked at shutdown.
    pub customers: usize,
    /// Where the final legacy snapshot was written, if anywhere.
    pub snapshot_path: Option<PathBuf>,
    /// Why the final snapshot write failed, if it did (also counted on
    /// `serve.snapshot.errors`).
    pub snapshot_error: Option<String>,
    /// Why the shutdown checkpoint failed, if it did. A durable server
    /// exiting with this set must be treated as a crash: the WAL still
    /// holds the tail and recovery will replay it.
    pub checkpoint_error: Option<String>,
    /// WAL records appended over this server's lifetime.
    pub wal_appends: u64,
    /// WAL fsyncs issued over this server's lifetime.
    pub wal_fsyncs: u64,
    /// Checkpoints written (periodic + shutdown).
    pub checkpoints: u64,
}

/// A running server; dropping the handle does **not** stop it — send
/// `SHUTDOWN`, call [`request_shutdown`](ServerHandle::request_shutdown),
/// or deliver SIGINT, then [`join`](ServerHandle::join).
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<dyn Service>,
    acceptor: JoinHandle<ServerSummary>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to drain and exit, as `SHUTDOWN` would.
    pub fn request_shutdown(&self) {
        self.service.request_shutdown();
    }

    /// Wait for the server to drain and return its summary.
    pub fn join(self) -> ServerSummary {
        self.acceptor
            .join()
            .expect("acceptor thread must not panic")
    }
}

/// Set by the process SIGINT handler; polled by every running server.
static SIGINT_RECEIVED: AtomicBool = AtomicBool::new(false);

/// Route SIGINT (ctrl-c) into the graceful-shutdown path instead of
/// killing the process mid-request. Call once, before serving.
#[cfg(unix)]
pub fn install_sigint_handler() {
    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        SIGINT_RECEIVED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `signal` is libc's (already linked by std); the handler
    // only performs an atomic store, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// No-op off unix: ctrl-c falls back to process termination.
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

/// Whether SIGINT was delivered since the handler was installed.
pub fn sigint_received() -> bool {
    SIGINT_RECEIVED.load(Ordering::SeqCst)
}

/// Bind and serve in background threads; returns once the listener is
/// accepting. Metrics recording is enabled for the process — a scoring
/// server's `STATS` verb is part of its contract.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let monitor = ShardedMonitor::new(
        config.n_shards,
        config.spec,
        config.params,
        config.max_explanations,
    );
    start_with(config, monitor)
}

/// [`start`] with a pre-populated (e.g. checkpoint-restored) monitor.
/// When durability is configured, the WAL starts at sequence number 1 —
/// for resuming an existing WAL directory use
/// [`recovery::recover`](crate::recovery::recover) + [`start_resumed`].
pub fn start_with(config: ServerConfig, monitor: ShardedMonitor) -> std::io::Result<ServerHandle> {
    start_resumed(config, monitor, 1)
}

/// [`start_with`] continuing an existing WAL: `next_seq` is the LSN the
/// next logged request gets (from
/// [`RecoveryStats::next_seq`](crate::recovery::RecoveryStats)).
pub fn start_resumed(
    config: ServerConfig,
    monitor: ShardedMonitor,
    next_seq: u64,
) -> std::io::Result<ServerHandle> {
    let engine = Arc::new(Engine::open(
        monitor,
        config.snapshot_path.clone(),
        config.durability.as_ref(),
        next_seq,
    )?);
    start_service(config, engine)
}

/// Serve an arbitrary [`Service`] — the entry point a replica (or any
/// other request core) uses to get the accept loop, worker pool,
/// backpressure and graceful shutdown without owning an [`Engine`].
pub fn start_service(
    config: ServerConfig,
    service: Arc<dyn Service>,
) -> std::io::Result<ServerHandle> {
    attrition_obs::set_enabled(true);
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let accept_service = Arc::clone(&service);
    let acceptor = std::thread::Builder::new()
        .name("serve-acceptor".into())
        .spawn(move || accept_loop(listener, accept_service, &config))
        .expect("acceptor thread must spawn");
    Ok(ServerHandle {
        addr,
        service,
        acceptor,
    })
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<dyn Service>,
    config: &ServerConfig,
) -> ServerSummary {
    let pool = ThreadPool::new(config.workers, config.queue_capacity);
    let connections = attrition_obs::counter("serve.connections.accepted");
    let rejected = attrition_obs::counter("serve.connections.rejected_busy");
    while !service.shutdown_requested() && !sigint_received() {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(config.read_timeout));
                let _ = stream.set_nodelay(true);
                connections.inc();
                // Backpressure: answer saturation with an immediate
                // rejection instead of buffering the connection. The
                // check is exact because this loop is the pool's only
                // producer (see `ThreadPool::is_saturated`).
                if pool.is_saturated() {
                    rejected.inc();
                    let _ = stream.write_all(b"ERR busy\n");
                    continue;
                }
                let conn_service = Arc::clone(&service);
                pool.try_execute(move || handle_connection(stream, &*conn_service))
                    .expect("non-saturated single-producer enqueue cannot fail");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    // Stop accepting; drain queued + in-flight connections.
    drop(listener);
    pool.shutdown();
    // Shutdown checkpoint + legacy snapshot: failures are surfaced in
    // the summary, not swallowed — the caller must treat a checkpoint
    // failure as a crash and rely on WAL recovery.
    let report = service.shutdown_flush();
    ServerSummary {
        requests: service.requests(),
        errors: service.errors(),
        connections: connections.get(),
        rejected_busy: rejected.get(),
        customers: service.num_customers(),
        snapshot_path: report.snapshot_path,
        snapshot_error: report.snapshot_error,
        checkpoint_error: report.checkpoint_error,
        wal_appends: report.wal_appends,
        wal_fsyncs: report.wal_fsyncs,
        checkpoints: report.checkpoints,
    }
}

fn handle_connection(stream: TcpStream, service: &dyn Service) {
    let active = attrition_obs::gauge("serve.connections.active");
    active.add(1);
    let _ = serve_connection(stream, service);
    active.add(-1);
}

/// One framing attempt from the connection's buffered reader.
enum Frame {
    /// A complete line (newline stripped, possibly empty) is in the
    /// caller's buffer — still raw bytes; the caller validates UTF-8 so
    /// the buffer can be reused frame after frame without reallocating.
    Line,
    /// Client closed the connection.
    Eof,
    /// Idle past the read timeout.
    TimedOut,
    /// The line exceeded [`MAX_LINE_BYTES`]; the rest of it (up to the
    /// next newline) has been discarded.
    TooLong,
}

/// Read one newline-delimited frame with a hard size bound. Unlike
/// `BufRead::read_line`, an oversized frame is consumed and reported as
/// a recoverable variant instead of poisoning the connection — the
/// caller answers `ERR` and keeps serving.
fn read_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Frame> {
    buf.clear();
    let mut overflowed = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(Frame::TimedOut)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(Frame::Eof);
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |pos| pos);
        if !overflowed {
            if buf.len() + take > MAX_LINE_BYTES {
                overflowed = true;
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        let consumed = newline.map_or(take, |pos| pos + 1);
        reader.consume(consumed);
        if newline.is_some() {
            if overflowed {
                return Ok(Frame::TooLong);
            }
            return Ok(Frame::Line);
        }
    }
}

/// The per-verb latency histogram name, without a per-request
/// `format!`: the verb set is closed, so the mapping is static.
fn latency_metric(verb: &str) -> &'static str {
    match verb {
        "ping" => "serve.latency.ping",
        "ingest" => "serve.latency.ingest",
        "score" => "serve.latency.score",
        "flush" => "serve.latency.flush",
        "snapshot" => "serve.latency.snapshot",
        "stats" => "serve.latency.stats",
        "shutdown" => "serve.latency.shutdown",
        "parse" => "serve.latency.parse",
        _ => "serve.latency.other",
    }
}

/// How reading a batch frame's member lines ended.
enum BatchRead {
    /// All `n` members read into the pack, ready to execute.
    Complete,
    /// All `n` member lines were consumed (framing preserved) but at
    /// least one was unusable; the message describes the first one.
    /// Nothing may execute — the whole frame is answered with one `ERR`.
    Invalid(String),
    /// EOF or timeout mid-frame: the batch never fully arrived, so
    /// nothing executes and the connection closes.
    Disconnected,
}

/// Read the `n` member lines of a `BATCH n` frame into `batch_buf` +
/// `bounds` (a [`PackedLines`] pack). Invalid members do not abort the
/// read: all `n` lines are consumed either way, so the stream stays
/// framed and the connection survives a rejected batch.
fn read_batch_members(
    reader: &mut impl BufRead,
    n: usize,
    member: &mut Vec<u8>,
    batch_buf: &mut String,
    bounds: &mut Vec<(usize, usize)>,
    bytes_read: &Counter,
) -> std::io::Result<BatchRead> {
    batch_buf.clear();
    bounds.clear();
    let mut invalid: Option<String> = None;
    for i in 0..n {
        match read_frame(reader, member)? {
            Frame::Eof | Frame::TimedOut => return Ok(BatchRead::Disconnected),
            Frame::TooLong => {
                if invalid.is_none() {
                    invalid = Some(format!(
                        "batch member {i}: line too long (max {MAX_LINE_BYTES} bytes)"
                    ));
                }
            }
            Frame::Line => {
                bytes_read.add(member.len() as u64 + 1);
                match std::str::from_utf8(member) {
                    Err(_) => {
                        if invalid.is_none() {
                            invalid = Some(format!("batch member {i}: request is not valid UTF-8"));
                        }
                    }
                    Ok(line) => {
                        let line = line.trim_end_matches('\r');
                        if parse_batch_header(line).is_some() {
                            if invalid.is_none() {
                                invalid =
                                    Some(format!("batch member {i}: nested BATCH not allowed"));
                            }
                        } else {
                            let start = batch_buf.len();
                            batch_buf.push_str(line);
                            bounds.push((start, batch_buf.len()));
                        }
                    }
                }
            }
        }
    }
    Ok(match invalid {
        Some(message) => BatchRead::Invalid(message),
        None => BatchRead::Complete,
    })
}

fn serve_connection(stream: TcpStream, service: &dyn Service) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Reusable per-connection buffers: the frame line, batch member
    // lines, the packed batch, the response being corked, and the
    // engine's parse/apply scratch. After a few frames these reach
    // steady-state capacity and the INGEST path allocates nothing.
    let mut buf = Vec::new();
    let mut member = Vec::new();
    let mut batch_buf = String::new();
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    let mut scratch = BatchScratch::new();
    let mut out = String::new();
    let bytes_read = attrition_obs::counter("serve.bytes_read");
    let bytes_written = attrition_obs::counter("serve.bytes_written");
    loop {
        if service.shutdown_requested() {
            return Ok(()); // draining: finish after the current request
        }
        out.clear();
        match read_frame(&mut reader, &mut buf)? {
            Frame::Eof => return Ok(()), // client closed
            Frame::TimedOut => {
                attrition_obs::counter("serve.connections.timed_out").inc();
                return Ok(()); // idle past the read timeout
            }
            Frame::TooLong => {
                let _ = writeln!(out, "ERR line too long (max {MAX_LINE_BYTES} bytes)");
            }
            Frame::Line => {
                bytes_read.add(buf.len() as u64 + 1);
                match std::str::from_utf8(&buf) {
                    Err(_) => out.push_str("ERR request is not valid UTF-8\n"),
                    Ok(line) => {
                        let line = line.trim_end_matches('\r');
                        if line.is_empty() {
                            continue; // tolerate blank keep-alive lines
                        }
                        match parse_batch_header(line) {
                            Some(Err(ParseError(message))) => {
                                let _ = writeln!(out, "ERR {message}");
                            }
                            Some(Ok(n)) => {
                                match read_batch_members(
                                    &mut reader,
                                    n,
                                    &mut member,
                                    &mut batch_buf,
                                    &mut bounds,
                                    &bytes_read,
                                )? {
                                    BatchRead::Disconnected => return Ok(()),
                                    BatchRead::Invalid(message) => {
                                        let _ = writeln!(out, "ERR {message}");
                                    }
                                    BatchRead::Complete => {
                                        let started = Instant::now();
                                        let packed = PackedLines::new(&batch_buf, &bounds);
                                        service.respond_batch(&packed, &mut scratch, &mut out);
                                        out.push('\n');
                                        attrition_obs::observe_ms(
                                            "serve.latency.batch",
                                            started.elapsed().as_secs_f64() * 1e3,
                                        );
                                    }
                                }
                            }
                            None => {
                                let started = Instant::now();
                                scratch.begin_frame();
                                let one = [(0, line.len())];
                                service.execute(
                                    &PackedLines::new(line, &one),
                                    &mut scratch,
                                    &mut out,
                                );
                                attrition_obs::observe_ms(
                                    latency_metric(scratch.outcomes()[0].verb),
                                    started.elapsed().as_secs_f64() * 1e3,
                                );
                            }
                        }
                    }
                }
            }
        }
        writer.write_all(out.as_bytes())?;
        bytes_written.add(out.len() as u64);
        if service.shutdown_requested() {
            return Ok(());
        }
    }
}
