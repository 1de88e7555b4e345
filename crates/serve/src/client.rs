//! A small blocking client for the line protocol — what the load
//! generator, the CI smoke test and the integration tests speak through.
//! Any `nc`/telnet session works just as well; this only adds typed
//! parsing of the replies.
//!
//! ## Resilience
//!
//! [`Client::connect`] sets both read **and write** timeouts, so a
//! stalled server cannot wedge a caller in `write_all`. On top of the
//! plain one-shot calls, [`Client::connect_retrying`] and
//! [`Client::send_retrying`] add jittered exponential backoff with a
//! bounded retry budget ([`RetryPolicy`]) for the two transient
//! failures a well-behaved caller should absorb:
//!
//! - `ERR busy` — the server rejected the *connection* before reading a
//!   byte (see the pool's backpressure contract), so retrying on a
//!   fresh connection can never double-apply a request;
//! - transient I/O (refused / reset / aborted / broken pipe / timeout) —
//!   for **connects** always safe; for **sends** the retry reconnects
//!   and resends, which is safe for idempotent requests (`SCORE`,
//!   `PING`, `STATS`, `FLUSH`) and for `INGEST` only when the failure
//!   happened before the server logged the record. Callers that cannot
//!   tolerate a rare duplicate ingest under ambiguity should use plain
//!   [`Client::send`]; the WAL's per-record sequence numbers make
//!   *recovery* replay exactly-once either way.

use crate::env::{Clock, RealClock, RngCore, SplitMix64};
use crate::protocol::{parse_score_line, ParsedScore};
use attrition_types::Date;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `PONG`.
    Pong,
    /// `OK <n>` plus its `CLOSED` lines (ingest/flush).
    Closed(Vec<ParsedScore>),
    /// `SCORE …`.
    Score(ParsedScore),
    /// `STATS <json>` — the raw JSON text.
    Stats(String),
    /// Any other `OK …` acknowledgement (snapshot, shutdown).
    Ok(String),
    /// `ERR …`.
    Err(String),
}

/// How aggressively [`Client::connect_retrying`] / [`send_retrying`]
/// retry transient failures: exponential backoff (doubling from
/// [`base_delay`] up to [`max_delay`]) with deterministic jitter, at
/// most [`budget`] retries.
///
/// [`send_retrying`]: Client::send_retrying
/// [`base_delay`]: RetryPolicy::base_delay
/// [`max_delay`]: RetryPolicy::max_delay
/// [`budget`]: RetryPolicy::budget
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries attempted after the first failure (0 = no retries).
    pub budget: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the jitter PRNG — fixed per client so load tests are
    /// reproducible; vary it per worker to decorrelate their retries.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 5 retries, 10 ms → 1 s backoff: rides out a saturated pool or a
    /// server restart measured in hundreds of milliseconds.
    fn default() -> RetryPolicy {
        RetryPolicy {
            budget: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// The (jittered) sleep before retry number `attempt` (1-based).
    /// Jitter draws uniformly from `[delay/2, delay]` so synchronized
    /// clients spread out instead of re-stampeding the server. Public
    /// so other retry loops (the replication fetcher) reuse the shape.
    pub fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20));
        let delay = exp.min(self.max_delay);
        let half = delay / 2;
        Duration::from_nanos(half.as_nanos() as u64 + rng.next_u64() % (half.as_nanos() as u64 + 1))
    }
}

/// How a [`Client::send_retrying`] call resolved — separate counters so
/// a load generator can report backpressure (`busy_rejections`) apart
/// from total retry work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retries performed (0 = the first attempt's reply was returned).
    pub retries: u32,
    /// `ERR busy` rejections received, including one returned as the
    /// final reply when the budget ran out.
    pub busy_rejections: u32,
}

/// Is this I/O failure plausibly transient (worth a backoff + retry)?
fn is_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        ConnectionRefused
            | ConnectionReset
            | ConnectionAborted
            | BrokenPipe
            | TimedOut
            | WouldBlock
            | UnexpectedEof
            | Interrupted
    )
}

/// One blocking connection to a running server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Remembered so a retrying send can reconnect after a reset.
    addr: std::net::SocketAddr,
    timeout: Duration,
}

impl Client {
    /// Connect; requests will block at most `timeout` waiting to write a
    /// request or read a reply line (read *and* write timeouts are set —
    /// a wedged server surfaces as `TimedOut`, never a hang).
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            addr: stream.peer_addr()?,
            timeout,
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// [`connect`](Client::connect) with retries on transient failures
    /// (refused while the server finishes binding, resets, timeouts).
    pub fn connect_retrying(
        addr: impl ToSocketAddrs,
        timeout: Duration,
        policy: &RetryPolicy,
    ) -> std::io::Result<Client> {
        Client::connect_retrying_with(addr, timeout, policy, &RealClock)
    }

    /// [`connect_retrying`](Client::connect_retrying) sleeping through an
    /// explicit [`Clock`] (logical under simulation, real otherwise).
    pub fn connect_retrying_with(
        addr: impl ToSocketAddrs,
        timeout: Duration,
        policy: &RetryPolicy,
        clock: &dyn Clock,
    ) -> std::io::Result<Client> {
        let mut jitter = SplitMix64::new(policy.seed);
        let mut attempt = 0u32;
        loop {
            match Client::connect(&addr, timeout) {
                Ok(client) => return Ok(client),
                Err(e) if attempt < policy.budget && is_transient(&e) => {
                    attempt += 1;
                    clock.sleep(policy.backoff(attempt, &mut jitter));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Tear down the current stream and dial the same server again.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Client::connect(self.addr, self.timeout)?;
        Ok(())
    }

    /// Send one raw request line and parse the reply.
    pub fn send(&mut self, line: &str) -> std::io::Result<Reply> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let first = self.read_line()?;
        self.read_reply(first)
    }

    /// Parse one member/request reply whose first line is `first`,
    /// reading any follow-up `CLOSED` lines it announces.
    fn read_reply(&mut self, first: String) -> std::io::Result<Reply> {
        if let Some(rest) = first.strip_prefix("OK ") {
            // `OK <n>` (a bare count) announces n CLOSED lines; any
            // other OK payload is a plain acknowledgement.
            if let Ok(n) = rest.trim().parse::<usize>() {
                let mut closed = Vec::with_capacity(n);
                for _ in 0..n {
                    let line = self.read_line()?;
                    closed.push(parse_score_line(&line).map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })?);
                }
                return Ok(Reply::Closed(closed));
            }
            return Ok(Reply::Ok(rest.to_owned()));
        }
        if first == "PONG" {
            return Ok(Reply::Pong);
        }
        if first.starts_with("SCORE ") {
            let score = parse_score_line(&first)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            return Ok(Reply::Score(score));
        }
        if let Some(json) = first.strip_prefix("STATS ") {
            return Ok(Reply::Stats(json.to_owned()));
        }
        if let Some(message) = first.strip_prefix("ERR ") {
            return Ok(Reply::Err(message.to_owned()));
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unparseable reply: {first:?}"),
        ))
    }

    /// [`send`](Client::send), absorbing `ERR busy` and transient I/O
    /// failures with jittered backoff + reconnect. Returns the final
    /// reply and the [`RetryStats`] it took; when the budget runs out
    /// the last reply/error is returned as-is, so a persistent
    /// `ERR busy` is still visible to the caller.
    pub fn send_retrying(
        &mut self,
        line: &str,
        policy: &RetryPolicy,
    ) -> std::io::Result<(Reply, RetryStats)> {
        self.send_retrying_with(line, policy, &RealClock)
    }

    /// [`send_retrying`](Client::send_retrying) sleeping through an
    /// explicit [`Clock`].
    pub fn send_retrying_with(
        &mut self,
        line: &str,
        policy: &RetryPolicy,
        clock: &dyn Clock,
    ) -> std::io::Result<(Reply, RetryStats)> {
        let mut jitter = SplitMix64::new(policy.seed);
        let mut stats = RetryStats::default();
        loop {
            let outcome = self.send(line);
            let busy = matches!(&outcome, Ok(Reply::Err(message)) if message == "busy");
            if busy {
                stats.busy_rejections += 1;
            }
            let retryable = busy || matches!(&outcome, Err(e) if is_transient(e));
            if !retryable || stats.retries >= policy.budget {
                return outcome.map(|reply| (reply, stats));
            }
            stats.retries += 1;
            clock.sleep(policy.backoff(stats.retries, &mut jitter));
            // Both retry causes leave the connection useless: `ERR busy`
            // is followed by a server-side close, transient I/O means
            // the stream died. Dial again (itself retried via connect's
            // transient handling being wrapped in this loop).
            if let Err(e) = self.reconnect() {
                if stats.retries >= policy.budget || !is_transient(&e) {
                    return Err(e);
                }
            }
        }
    }

    /// Write one `BATCH` frame — header plus every member line — as a
    /// single buffered write (one syscall for small batches), without
    /// waiting for the reply. Pair with
    /// [`read_batch_replies`](Client::read_batch_replies), or use
    /// [`send_batch`](Client::send_batch) for the blocking round trip.
    pub fn write_batch(&mut self, members: &[String]) -> std::io::Result<()> {
        let mut frame =
            String::with_capacity(16 + members.iter().map(|m| m.len() + 1).sum::<usize>());
        let _ = writeln!(frame, "BATCH {}", members.len());
        for member in members {
            frame.push_str(member);
            frame.push('\n');
        }
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()
    }

    /// Read the reply to one previously written batch of `n` members:
    /// the `OKBATCH <n>` header plus one parsed [`Reply`] per member. A
    /// frame-level rejection (`ERR …` instead of `OKBATCH`) or a member
    /// count mismatch surfaces as `InvalidData` — the server rejected
    /// or misframed the batch, so no member can be attributed an ack.
    pub fn read_batch_replies(&mut self, n: usize) -> std::io::Result<Vec<Reply>> {
        let first = self.read_line()?;
        let invalid =
            |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
        let Some(rest) = first.strip_prefix("OKBATCH ") else {
            if let Some(message) = first.strip_prefix("ERR ") {
                return Err(invalid(format!("batch rejected: {message}")));
            }
            return Err(invalid(format!("unparseable batch reply: {first:?}")));
        };
        let count: usize = rest
            .trim()
            .parse()
            .map_err(|_| invalid(format!("unparseable batch reply: {first:?}")))?;
        if count != n {
            return Err(invalid(format!(
                "batch reply count mismatch: sent {n} members, server answered {count}"
            )));
        }
        let mut replies = Vec::with_capacity(n);
        for _ in 0..n {
            let first = self.read_line()?;
            replies.push(self.read_reply(first)?);
        }
        Ok(replies)
    }

    /// Send one `BATCH` frame and block for its replies, one per member
    /// in order. The server acks the whole frame only after every
    /// mutating member shares a single group-commit fsync, so this is
    /// the cheapest way to make many ingests durable.
    pub fn send_batch(&mut self, members: &[String]) -> std::io::Result<Vec<Reply>> {
        self.write_batch(members)?;
        self.read_batch_replies(members.len())
    }

    /// `INGEST`: returns the windows this receipt closed.
    pub fn ingest(&mut self, customer: u64, date: Date, items: &[u32]) -> std::io::Result<Reply> {
        let mut line = format!("INGEST {customer} {date}");
        for item in items {
            line.push(' ');
            line.push_str(&item.to_string());
        }
        self.send(&line)
    }

    /// `FLUSH`: closes all windows before the one containing `date`.
    pub fn flush(&mut self, date: Date) -> std::io::Result<Reply> {
        self.send(&format!("FLUSH {date}"))
    }

    /// `SCORE`: the live preview of one customer.
    pub fn score(&mut self, customer: u64) -> std::io::Result<Reply> {
        self.send(&format!("SCORE {customer}"))
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_owned())
    }
}

/// Bounded-window pipelining over one [`Client`] connection: keep up to
/// `window` batch frames in flight before blocking on the oldest ack,
/// overlapping the client's send path with the server's fsync + apply.
/// Each submitted batch carries a caller tag `T` (typically the send
/// timestamp) handed back with its replies, so a load generator can
/// attribute latency without a map.
///
/// The window is what keeps pipelining honest: an unbounded pipe would
/// let the client declare ops "sent" unboundedly far ahead of what the
/// server has made durable.
pub struct Pipeline<'a, T> {
    client: &'a mut Client,
    window: usize,
    /// Member count + tag per in-flight frame, oldest first.
    in_flight: VecDeque<(usize, T)>,
}

impl<'a, T> Pipeline<'a, T> {
    /// Pipeline over `client` with at most `window` (≥ 1) frames in
    /// flight.
    pub fn new(client: &'a mut Client, window: usize) -> Pipeline<'a, T> {
        Pipeline {
            client,
            window: window.max(1),
            in_flight: VecDeque::new(),
        }
    }

    /// Frames currently awaiting their ack.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Write one batch frame. When the window is already full this
    /// first blocks for the *oldest* outstanding frame's replies and
    /// returns them (with their tag); otherwise it returns `None` and
    /// never blocks on the read side.
    pub fn submit(
        &mut self,
        members: &[String],
        tag: T,
    ) -> std::io::Result<Option<(Vec<Reply>, T)>> {
        let completed = if self.in_flight.len() >= self.window {
            Some(self.complete_oldest()?)
        } else {
            None
        };
        self.client.write_batch(members)?;
        self.in_flight.push_back((members.len(), tag));
        Ok(completed)
    }

    /// Block until every in-flight frame is acked; returns their
    /// replies and tags, oldest first.
    pub fn drain(&mut self) -> std::io::Result<Vec<(Vec<Reply>, T)>> {
        let mut done = Vec::with_capacity(self.in_flight.len());
        while !self.in_flight.is_empty() {
            done.push(self.complete_oldest()?);
        }
        Ok(done)
    }

    fn complete_oldest(&mut self) -> std::io::Result<(Vec<Reply>, T)> {
        let (n, tag) = self
            .in_flight
            .pop_front()
            .expect("complete_oldest requires an in-flight frame");
        let replies = self.client.read_batch_replies(n)?;
        Ok((replies, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_within_half() {
        let policy = RetryPolicy::default();
        let mut jitter = SplitMix64::new(policy.seed);
        let mut previous_cap = Duration::ZERO;
        for attempt in 1..=8 {
            let exp = policy
                .base_delay
                .saturating_mul(1u32 << (attempt - 1))
                .min(policy.max_delay);
            let d = policy.backoff(attempt, &mut jitter);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d:?} not in [{:?}, {exp:?}]",
                exp / 2
            );
            assert!(exp >= previous_cap);
            previous_cap = exp;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let (mut a, mut b) = (SplitMix64::new(policy.seed), SplitMix64::new(policy.seed));
        for attempt in 1..=5 {
            assert_eq!(
                policy.backoff(attempt, &mut a),
                policy.backoff(attempt, &mut b)
            );
        }
    }

    #[test]
    fn transient_kinds_are_classified() {
        use std::io::{Error, ErrorKind};
        assert!(is_transient(&Error::from(ErrorKind::ConnectionRefused)));
        assert!(is_transient(&Error::from(ErrorKind::TimedOut)));
        assert!(is_transient(&Error::from(ErrorKind::BrokenPipe)));
        assert!(!is_transient(&Error::from(ErrorKind::InvalidData)));
        assert!(!is_transient(&Error::from(ErrorKind::PermissionDenied)));
    }
}
