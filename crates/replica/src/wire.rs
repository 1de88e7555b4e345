//! The replication wire format: three line shapes on top of the
//! existing newline protocol.
//!
//! A replica pulls; the primary never initiates. One fetch round trip:
//!
//! ```text
//! → REPL <epoch> <after> <max>
//! ← RBATCH <epoch> <durable> <n>        (records available)
//!   R <seq> <crc> <op...>               (× n)
//! ← RSNAP <epoch> <lsn> <len> <crc>    (log truncated past `after`:
//!   <hex body>                           bootstrap snapshot)
//! ← ERR <reason>
//! ```
//!
//! and the failover verbs:
//!
//! ```text
//! → PROMOTE
//! ← OK promoted <epoch> <lsn>
//!
//! → REJOIN <epoch> <durable>             (deposed node asking where
//! ← RJOIN <epoch> <promotion_lsn>         the new generation started)
//! ```
//!
//! `REJOIN`/`RJOIN` is the divergence handshake: a node that discovers
//! a newer generation reports its own epoch and durable LSN, and the
//! current primary answers with its epoch and that epoch's start LSN.
//! The requester then knows exactly which suffix of its local log never
//! made it onto the surviving timeline and must be discarded before it
//! can fetch again (see `ReplicaEngine::rejoin_to`).
//!
//! `<crc>` on an `R` line is CRC-32 over `seq: u64 LE ++ op` — the
//! *identical* bytes the WAL frame checksums, so a record's integrity
//! check is the same computation on both sides of the wire. The `RSNAP`
//! `<crc>`/`<len>` cover the raw checkpoint body (hex-decoded), a binary
//! monitor snapshot; the body itself re-verifies once more when the
//! checkpoint file is read back after installation.
//!
//! Everything here is pure encode/decode — no sockets, no engines — so
//! the deterministic simulator and the real TCP transport ship
//! byte-identical lines.

use attrition_serve::wal::WalRecord;
use attrition_util::crc::crc32;

/// Most records the primary will ship in one batch; also the wire
/// parser's sanity bound on the record count an `RBATCH` header may
/// promise (anything larger is rejected before buffers are sized).
pub const MAX_BATCH_RECORDS: usize = 4096;

/// A malformed replication line (answered/reported as `ERR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

/// CRC-32 over `seq LE ++ op` — the WAL frame's payload checksum,
/// recomputed for the wire.
pub fn record_crc(seq: u64, op: &str) -> u32 {
    let mut payload = Vec::with_capacity(8 + op.len());
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(op.as_bytes());
    crc32(&payload)
}

/// One replication fetch: "send me records after `after`, at most
/// `max`, and here is my epoch so you can fence me if I am stale-dated".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRequest {
    /// The requesting replica's current epoch.
    pub epoch: u64,
    /// Highest sequence number the replica has applied.
    pub after: u64,
    /// Most records the replica will accept in one batch.
    pub max: u64,
}

impl FetchRequest {
    /// Render the `REPL` request line.
    pub fn to_line(&self) -> String {
        format!("REPL {} {} {}", self.epoch, self.after, self.max)
    }

    /// Parse a `REPL` request line.
    pub fn parse(line: &str) -> Result<FetchRequest, WireError> {
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        if fields.len() != 4 || fields[0] != "REPL" {
            return Err(WireError(format!(
                "bad REPL request {line:?} (expected REPL <epoch> <after> <max>)"
            )));
        }
        let num = |i: usize| -> Result<u64, WireError> {
            fields[i]
                .parse()
                .map_err(|_| WireError(format!("bad number {:?} in {line:?}", fields[i])))
        };
        let req = FetchRequest {
            epoch: num(1)?,
            after: num(2)?,
            max: num(3)?,
        };
        if req.max == 0 {
            // A zero-record fetch is never what a replica means, and
            // letting it through would turn a caught-up request into a
            // pointless full-snapshot shipment once the log truncates.
            return Err(WireError(format!(
                "bad REPL request {line:?} (max must be >= 1)"
            )));
        }
        Ok(req)
    }
}

/// The divergence handshake request: "here is my epoch and my durable
/// LSN — tell me where your generation started so I can find my
/// divergent suffix".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinRequest {
    /// The requesting node's current epoch.
    pub epoch: u64,
    /// The requesting node's durable LSN.
    pub durable: u64,
}

impl RejoinRequest {
    /// Render the `REJOIN` request line.
    pub fn to_line(&self) -> String {
        format!("REJOIN {} {}", self.epoch, self.durable)
    }

    /// Parse a `REJOIN` request line.
    pub fn parse(line: &str) -> Result<RejoinRequest, WireError> {
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        if fields.len() != 3 || fields[0] != "REJOIN" {
            return Err(WireError(format!(
                "bad REJOIN request {line:?} (expected REJOIN <epoch> <durable>)"
            )));
        }
        let num = |i: usize| -> Result<u64, WireError> {
            fields[i]
                .parse()
                .map_err(|_| WireError(format!("bad number {:?} in {line:?}", fields[i])))
        };
        Ok(RejoinRequest {
            epoch: num(1)?,
            durable: num(2)?,
        })
    }
}

/// The divergence handshake answer: the responder's epoch and the LSN
/// at which that epoch began (the promotion takeover point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinResponse {
    /// The responding primary's epoch.
    pub epoch: u64,
    /// The LSN at which the responder's epoch started. Records above
    /// this LSN on an older epoch's timeline are divergent.
    pub promotion_lsn: u64,
}

impl RejoinResponse {
    /// Render the `RJOIN` response line.
    pub fn to_line(&self) -> String {
        format!("RJOIN {} {}", self.epoch, self.promotion_lsn)
    }

    /// Parse an `RJOIN` response line.
    pub fn parse(line: &str) -> Result<RejoinResponse, WireError> {
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        if fields.len() != 3 || fields[0] != "RJOIN" {
            return Err(WireError(format!(
                "bad RJOIN response {line:?} (expected RJOIN <epoch> <promotion_lsn>)"
            )));
        }
        let num = |i: usize| -> Result<u64, WireError> {
            fields[i]
                .parse()
                .map_err(|_| WireError(format!("bad number {:?} in {line:?}", fields[i])))
        };
        let resp = RejoinResponse {
            epoch: num(1)?,
            promotion_lsn: num(2)?,
        };
        if resp.epoch == 0 {
            return Err(WireError(format!(
                "bad RJOIN response {line:?} (epochs are 1-based)"
            )));
        }
        Ok(resp)
    }
}

/// What a fetch brought back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchResponse {
    /// Records `after+1 ..` (possibly empty: the replica is caught up).
    Batch {
        /// The sender's epoch.
        epoch: u64,
        /// The sender's durable floor at response time — what the
        /// replica's lag gauge measures against.
        durable: u64,
        /// Contiguous records, ascending sequence numbers.
        records: Vec<WalRecord>,
    },
    /// The log no longer holds `after+1` (a checkpoint truncated it):
    /// bootstrap from this snapshot, then fetch the tail.
    Snapshot {
        /// The sender's epoch.
        epoch: u64,
        /// The LSN the snapshot covers.
        lsn: u64,
        /// The raw checkpoint body: a binary monitor snapshot.
        body: Vec<u8>,
    },
}

impl FetchResponse {
    /// The sender's epoch, whatever the variant.
    pub fn epoch(&self) -> u64 {
        match self {
            FetchResponse::Batch { epoch, .. } => *epoch,
            FetchResponse::Snapshot { epoch, .. } => *epoch,
        }
    }

    /// Render the full (multi-line, no trailing newline) response.
    pub fn to_wire(&self) -> String {
        match self {
            FetchResponse::Batch {
                epoch,
                durable,
                records,
            } => {
                let mut out = format!("RBATCH {epoch} {durable} {}", records.len());
                for r in records {
                    out.push('\n');
                    out.push_str(&format!(
                        "R {} {} {}",
                        r.seq,
                        record_crc(r.seq, &r.op),
                        r.op
                    ));
                }
                out
            }
            FetchResponse::Snapshot { epoch, lsn, body } => {
                format!(
                    "RSNAP {epoch} {lsn} {} {}\n{}",
                    body.len(),
                    crc32(body),
                    hex_encode(body)
                )
            }
        }
    }

    /// How many lines follow a response header line (`RBATCH` → its
    /// record count, `RSNAP` → the body line, anything else → 0). The
    /// TCP fetcher uses this to know when a response is complete.
    pub fn extra_lines(header: &str) -> Result<usize, WireError> {
        let fields: Vec<&str> = header.split_ascii_whitespace().collect();
        match fields.first() {
            Some(&"RBATCH") if fields.len() == 4 => fields[3]
                .parse()
                .ok()
                .filter(|&n: &usize| n <= MAX_BATCH_RECORDS)
                .ok_or_else(|| WireError(format!("bad record count in {header:?}"))),
            Some(&"RSNAP") => Ok(1),
            _ => Ok(0),
        }
    }

    /// Parse a full response (header + continuation lines), verifying
    /// every per-record and body checksum.
    pub fn parse(text: &str) -> Result<FetchResponse, WireError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| WireError("empty replication response".into()))?;
        let fields: Vec<&str> = header.split_ascii_whitespace().collect();
        let num = |f: &str| -> Result<u64, WireError> {
            f.parse()
                .map_err(|_| WireError(format!("bad number {f:?} in {header:?}")))
        };
        match fields.first() {
            Some(&"RBATCH") if fields.len() == 4 => {
                let epoch = num(fields[1])?;
                let durable = num(fields[2])?;
                let n = num(fields[3])? as usize;
                if n > MAX_BATCH_RECORDS {
                    return Err(WireError(format!(
                        "RBATCH promises {n} records (cap is {MAX_BATCH_RECORDS})"
                    )));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let line = lines.next().ok_or_else(|| {
                        WireError(format!(
                            "RBATCH promised {n} records, got {}",
                            records.len()
                        ))
                    })?;
                    records.push(parse_record_line(line)?);
                }
                Ok(FetchResponse::Batch {
                    epoch,
                    durable,
                    records,
                })
            }
            Some(&"RSNAP") if fields.len() == 5 => {
                let epoch = num(fields[1])?;
                let lsn = num(fields[2])?;
                let len = num(fields[3])? as usize;
                let crc = num(fields[4])? as u32;
                let body_hex = lines
                    .next()
                    .ok_or_else(|| WireError("RSNAP missing its body line".into()))?;
                let body = hex_decode(body_hex)?;
                if body.len() != len {
                    return Err(WireError(format!(
                        "RSNAP body length {} ≠ announced {len}",
                        body.len()
                    )));
                }
                if crc32(&body) != crc {
                    return Err(WireError("RSNAP body failed its checksum".into()));
                }
                Ok(FetchResponse::Snapshot { epoch, lsn, body })
            }
            _ => Err(WireError(format!("bad replication response {header:?}"))),
        }
    }
}

fn parse_record_line(line: &str) -> Result<WalRecord, WireError> {
    let mut fields = line.splitn(4, ' ');
    let tag = fields.next().unwrap_or("");
    let (Some(seq), Some(crc)) = (fields.next(), fields.next()) else {
        return Err(WireError(format!("bad record line {line:?}")));
    };
    if tag != "R" {
        return Err(WireError(format!("bad record line {line:?}")));
    }
    let seq: u64 = seq
        .parse()
        .map_err(|_| WireError(format!("bad seq in {line:?}")))?;
    let crc: u32 = crc
        .parse()
        .map_err(|_| WireError(format!("bad crc in {line:?}")))?;
    let op = fields.next().unwrap_or("").to_owned();
    if record_crc(seq, &op) != crc {
        return Err(WireError(format!("record {seq} failed its checksum")));
    }
    Ok(WalRecord { seq, op })
}

/// Lowercase hex, two digits per byte (the snapshot body's line-safe
/// encoding — checkpoint bodies may contain newlines and arbitrary
/// bytes).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`hex_encode`].
pub fn hex_decode(text: &str) -> Result<Vec<u8>, WireError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(WireError("odd-length hex body".into()));
    }
    let nibble = |c: u8| -> Result<u8, WireError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(WireError(format!("bad hex digit {:?}", c as char))),
        }
    };
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                seq: 4,
                op: "INGEST 7 2012-05-02 1 2 3".into(),
            },
            WalRecord {
                seq: 5,
                op: "FLUSH 2012-06-01".into(),
            },
        ]
    }

    #[test]
    fn fetch_request_roundtrips() {
        let req = FetchRequest {
            epoch: 3,
            after: 41,
            max: 256,
        };
        assert_eq!(req.to_line(), "REPL 3 41 256");
        assert_eq!(FetchRequest::parse(&req.to_line()).unwrap(), req);
        for bad in [
            "REPL",
            "REPL 1 2",
            "REPL 1 2 3 4 5",
            "REPL x 2 3",
            "NOPE 1 2 3",
            // the malformed-frame corpus: non-numeric, overflowing,
            // negative, and zero-max requests all ERR at parse time
            "REPL 1 2 0",
            "REPL 18446744073709551616 2 3",
            "REPL 1 18446744073709551616 3",
            "REPL 1 2 18446744073709551616",
            "REPL -1 2 3",
            "REPL 1.5 2 3",
            "REPL \u{221e} 2 3",
        ] {
            assert!(FetchRequest::parse(bad).is_err(), "accepted {bad:?}");
        }
        // max above the batch cap parses — the primary clamps it.
        assert!(FetchRequest::parse("REPL 1 2 999999").is_ok());
    }

    #[test]
    fn rejoin_handshake_roundtrips_and_rejects_malformed_lines() {
        let req = RejoinRequest {
            epoch: 1,
            durable: 93,
        };
        assert_eq!(req.to_line(), "REJOIN 1 93");
        assert_eq!(RejoinRequest::parse(&req.to_line()).unwrap(), req);
        for bad in [
            "REJOIN",
            "REJOIN 1",
            "REJOIN 1 2 3",
            "REJOIN x 2",
            "REJOIN 1 18446744073709551616",
            "RJOIN 1 2",
        ] {
            assert!(RejoinRequest::parse(bad).is_err(), "accepted {bad:?}");
        }

        let resp = RejoinResponse {
            epoch: 2,
            promotion_lsn: 87,
        };
        assert_eq!(resp.to_line(), "RJOIN 2 87");
        assert_eq!(RejoinResponse::parse(&resp.to_line()).unwrap(), resp);
        // RJOIN is header-only: the fetcher reads no continuation lines.
        assert_eq!(FetchResponse::extra_lines(&resp.to_line()).unwrap(), 0);
        for bad in [
            "RJOIN",
            "RJOIN 2",
            "RJOIN 2 3 4",
            "RJOIN 0 3",
            "RJOIN x 3",
            "REJOIN 2 3",
        ] {
            assert!(RejoinResponse::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn truncated_or_oversized_responses_are_rejected() {
        // RBATCH promising more records than it carries.
        let wire = FetchResponse::Batch {
            epoch: 2,
            durable: 9,
            records: records(),
        }
        .to_wire();
        let truncated: String = wire.lines().take(2).collect::<Vec<_>>().join("\n");
        let err = FetchResponse::parse(&truncated).unwrap_err();
        assert!(err.0.contains("promised"), "unexpected error: {err}");

        // A record count above the batch cap is rejected before any
        // buffer is sized to it, in both the line counter and the parser.
        let oversize = format!("RBATCH 1 1 {}", MAX_BATCH_RECORDS + 1);
        assert!(FetchResponse::extra_lines(&oversize).is_err());
        assert!(FetchResponse::parse(&oversize).is_err());
        let absurd = "RBATCH 1 1 99999999999999999999";
        assert!(FetchResponse::extra_lines(absurd).is_err());
        assert!(FetchResponse::parse(absurd).is_err());

        // RSNAP with no body line, and with a short body.
        assert!(FetchResponse::parse("RSNAP 1 5 11 123").is_err());
        let snap = FetchResponse::Snapshot {
            epoch: 1,
            lsn: 7,
            body: b"hello,world".to_vec(),
        }
        .to_wire();
        let mut lines = snap.lines();
        let header = lines.next().unwrap();
        let body = lines.next().unwrap();
        let short = format!("{header}\n{}", &body[..body.len() - 2]);
        assert!(FetchResponse::parse(&short).is_err());
    }

    #[test]
    fn batch_roundtrips_and_counts_extra_lines() {
        let resp = FetchResponse::Batch {
            epoch: 2,
            durable: 9,
            records: records(),
        };
        let wire = resp.to_wire();
        let header = wire.lines().next().unwrap();
        assert_eq!(FetchResponse::extra_lines(header).unwrap(), 2);
        assert_eq!(FetchResponse::parse(&wire).unwrap(), resp);

        let empty = FetchResponse::Batch {
            epoch: 1,
            durable: 0,
            records: vec![],
        };
        assert_eq!(empty.to_wire(), "RBATCH 1 0 0");
        assert_eq!(FetchResponse::parse(&empty.to_wire()).unwrap(), empty);
    }

    #[test]
    fn snapshot_roundtrips_including_binary_bodies() {
        let body: Vec<u8> = (0u16..512).map(|b| (b % 256) as u8).collect();
        let resp = FetchResponse::Snapshot {
            epoch: 5,
            lsn: 100,
            body,
        };
        let wire = resp.to_wire();
        // Exactly five header fields: a sixth is malformed.
        let header = wire.lines().next().unwrap();
        assert_eq!(header.split(' ').count(), 5, "{header}");
        let six = wire.replacen("RSNAP 5 100 ", "RSNAP 5 100 binary ", 1);
        assert!(FetchResponse::parse(&six).is_err());
        assert_eq!(
            FetchResponse::extra_lines(wire.lines().next().unwrap()).unwrap(),
            1
        );
        assert_eq!(FetchResponse::parse(&wire).unwrap(), resp);
    }

    #[test]
    fn corrupted_record_or_body_is_rejected() {
        let wire = FetchResponse::Batch {
            epoch: 2,
            durable: 9,
            records: records(),
        }
        .to_wire();
        // Flip one character of an op: the per-record CRC catches it.
        let corrupted = wire.replace("2012-05-02", "2012-05-03");
        assert!(FetchResponse::parse(&corrupted).is_err());

        let snap = FetchResponse::Snapshot {
            epoch: 1,
            lsn: 7,
            body: b"hello,world".to_vec(),
        }
        .to_wire();
        let (header, body) = snap.split_once('\n').unwrap();
        assert!(body.starts_with("68"), "{body}");
        let corrupted = format!("{header}\n69{}", &body[2..]); // first body byte
        assert!(FetchResponse::parse(&corrupted).is_err());
    }

    #[test]
    fn hex_roundtrips() {
        for body in [&b""[..], &b"\x00\xff\n\r arbitrary"[..]] {
            assert_eq!(hex_decode(&hex_encode(body)).unwrap(), body);
        }
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }
}
