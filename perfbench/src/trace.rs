//! The traced run (`--trace 1`): spans around every call the benchmark
//! makes into a layer's public functions, kept in memory and written
//! out at exit, and the per-layer metrics derived from them.
//!
//! The workload's stream is driven two ways in process: through
//! `Engine::respond` / `respond_batch`, and through the stages called
//! directly (parse, WAL append and commit, shard apply, render). The
//! two must answer byte for byte alike. The direct path runs once more
//! without spans; the difference in throughput is the tracing overhead.

use crate::e2e::{self, Sizes};
use crate::gen::{self, Stream};
use crate::offline;
use crate::util::{json_str, percentile, Report};
use crate::wire::{self, Server, SHARDS};
use crate::{Cfg, Workload};
use attrition_core::StabilityMonitor;
use attrition_serve::checkpoint;
use attrition_serve::protocol::{
    format_score_into, write_flush_line, write_ingest_line, ParsedRequest, Request,
};
use attrition_serve::recovery::{recover, Fallback};
use attrition_serve::wal::{read_records, SyncPolicy, Wal, WAL_FILE};
use attrition_serve::{BatchScratch, CheckpointFormat, DurabilityConfig, Engine, ShardedMonitor};
use attrition_store::csv_io::{receipts_to_csv, taxonomy_to_csv};
use attrition_store::WindowSpec;
use attrition_types::{Basket, ItemId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parent of a top-level span.
pub const ROOT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// In-memory span recorder; a disabled one records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id != ROOT {
            let now = self.ns(Instant::now());
            self.spans[id as usize].end_ns = now;
        }
    }

    /// End a span under a name chosen by what the call did.
    #[inline]
    pub fn end_as(&mut self, id: u32, name: &'static str) {
        if id != ROOT {
            self.spans[id as usize].name = name;
            self.end(id);
        }
    }

    /// Record a span that was timed elsewhere.
    pub fn push(&mut self, name: &'static str, start: Instant, dur: Duration) {
        if self.on {
            let start_ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + dur.as_nanos() as u64,
                parent: ROOT,
                req: 0,
            });
        }
    }

    /// Time one top-level call as a span; returns its result and seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        self.push(name, t, d);
        (r, d.as_secs_f64())
    }

    /// Per span name: (count, total ns, self ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(c);
        }
        out
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,request")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// Counters of the direct-stage path.
#[derive(Default)]
struct Counts {
    requests: u64,
    appends: u64,
    commits: u64,
    wal_errors: u64,
    windows_closed: u64,
    user_bytes: u64,
    reply_bytes: u64,
    fsyncs: u64,
    wal_bytes: u64,
}

/// The stream as the engine sees it: one request per unit (batch 1) or
/// frames of `batch` lines.
fn units(stream: &Stream, batch: usize) -> Vec<Vec<String>> {
    stream
        .reqs
        .chunks(batch)
        .map(|c| c.iter().map(|r| r.line.clone()).collect())
        .collect()
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        wal_dir: dir.to_owned(),
        sync_policy: SyncPolicy::Always,
        checkpoint_every_requests: 0,
        checkpoint_every: None,
        keep_checkpoints: 2,
        checkpoint_format: CheckpointFormat::Binary,
        fault_plan: None,
    }
}

/// Drive `units` through the engine; one span per call.
fn engine_path(
    tr: &mut Tracer,
    monitor: ShardedMonitor,
    next_seq: u64,
    dir: &Path,
    units: &[Vec<String>],
    batch: usize,
) -> (Vec<String>, Duration) {
    let engine =
        Engine::open(monitor, None, Some(&durability(dir)), next_seq).expect("open engine");
    let mut scratch = BatchScratch::new();
    let mut outs = Vec::with_capacity(units.len());
    let t = Instant::now();
    for (i, unit) in units.iter().enumerate() {
        if batch == 1 {
            let s = tr.begin("engine.respond", ROOT, i as u64);
            let (_, reply) = engine.respond(&unit[0]);
            tr.end(s);
            outs.push(reply);
        } else {
            let mut out = String::new();
            let s = tr.begin("engine.respond_batch", ROOT, i as u64);
            engine.respond_batch(unit, &mut scratch, &mut out);
            tr.end(s);
            outs.push(out);
        }
    }
    (outs, t.elapsed())
}

/// Drive `units` through the stages called directly.
fn direct_path(
    tr: &mut Tracer,
    monitor: ShardedMonitor,
    next_seq: u64,
    dir: &Path,
    units: &[Vec<String>],
    batched: bool,
) -> (Vec<String>, Duration, Counts) {
    std::fs::create_dir_all(dir).expect("create wal dir");
    let wal_path = dir.join(WAL_FILE);
    let mut wal = Wal::open(&wal_path, SyncPolicy::Always, next_seq).expect("open wal");
    let mut c = Counts::default();
    let mut items: Vec<ItemId> = Vec::new();
    let mut parsed: Vec<Result<ParsedRequest, String>> = Vec::new();
    let mut apply: Vec<ItemId> = Vec::new();
    let mut op = String::new();
    let mut outs = Vec::with_capacity(units.len());
    let t = Instant::now();
    let mut req = 0u64;
    for (f, unit) in units.iter().enumerate() {
        let p = tr.begin(if batched { "frame" } else { "request" }, ROOT, f as u64);
        items.clear();
        parsed.clear();
        for line in unit {
            let s = tr.begin("protocol.parse", p, req + parsed.len() as u64);
            parsed.push(Request::parse_into(line, &mut items).map_err(|e| e.0));
            tr.end(s);
        }
        let mut appended = false;
        for (k, parse) in parsed.iter_mut().enumerate() {
            op.clear();
            match parse {
                Ok(ParsedRequest::Ingest(customer, date, range)) => {
                    write_ingest_line(&mut op, *customer, *date, &items[range.clone()])
                }
                Ok(ParsedRequest::Flush(date)) => write_flush_line(&mut op, *date),
                _ => continue,
            }
            let s = tr.begin("wal.append", p, req + k as u64);
            let result = wal.append_deferred(&op);
            tr.end(s);
            c.appends += 1;
            c.user_bytes += op.len() as u64;
            appended = true;
            if let Err(e) = result {
                c.wal_errors += 1;
                *parse = Err(format!("wal append failed: {e}"));
            }
        }
        let committed = if appended {
            let s = tr.begin("wal.commit", p, req);
            let committed = wal.commit();
            tr.end(s);
            c.commits += 1;
            committed
        } else {
            Ok(())
        };
        if let Err(e) = committed {
            c.wal_errors += 1;
            for parse in parsed.iter_mut() {
                if matches!(
                    parse,
                    Ok(ParsedRequest::Ingest(..) | ParsedRequest::Flush(_))
                ) {
                    *parse = Err(format!("wal commit failed: {e}"));
                }
            }
        }
        let mut out = String::new();
        if batched {
            let _ = write!(out, "OKBATCH {}", unit.len());
        }
        for (k, parse) in parsed.iter().enumerate() {
            let id = req + k as u64;
            if batched {
                out.push('\n');
            }
            match parse {
                Ok(ParsedRequest::Ingest(customer, date, range)) => {
                    let s = tr.begin("shard.apply", p, id);
                    apply.clear();
                    apply.extend_from_slice(&items[range.clone()]);
                    apply.sort_unstable();
                    apply.dedup();
                    let result = monitor.ingest_sorted(*customer, *date, &apply);
                    let closed = result.as_ref().map(|v| v.len()).unwrap_or(0);
                    tr.end_as(
                        s,
                        if closed == 0 {
                            "shard.apply"
                        } else {
                            "shard.close"
                        },
                    );
                    c.windows_closed += closed as u64;
                    let s = tr.begin("protocol.render", p, id);
                    match result {
                        Ok(closed) => gen::render_closed(&mut out, &closed),
                        Err(e) => {
                            let _ = write!(out, "ERR {e}");
                        }
                    }
                    tr.end(s);
                }
                Ok(ParsedRequest::Flush(date)) => {
                    let s = tr.begin("shard.apply", p, id);
                    let closed = monitor.flush_until(*date);
                    tr.end_as(
                        s,
                        if closed.is_empty() {
                            "shard.apply"
                        } else {
                            "shard.close"
                        },
                    );
                    c.windows_closed += closed.len() as u64;
                    let s = tr.begin("protocol.render", p, id);
                    gen::render_closed(&mut out, &closed);
                    tr.end(s);
                }
                Ok(ParsedRequest::Score(customer)) => {
                    let s = tr.begin("shard.score", p, id);
                    let point = monitor.preview(*customer);
                    tr.end(s);
                    let s = tr.begin("protocol.render", p, id);
                    match point {
                        Some(point) => format_score_into(&mut out, *customer, &point),
                        None => {
                            let _ = write!(out, "ERR unknown customer {}", customer.raw());
                        }
                    }
                    tr.end(s);
                }
                Ok(other) => panic!("the benchmark streams send no {other:?}"),
                Err(message) => {
                    let _ = write!(out, "ERR {message}");
                }
            }
        }
        req += unit.len() as u64;
        c.reply_bytes += out.len() as u64;
        outs.push(out);
        tr.end(p);
    }
    let wall = t.elapsed();
    c.requests = req;
    c.fsyncs = wal.fsyncs();
    c.wal_bytes = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    (outs, wall, c)
}

/// What a unit's reply must be, from the stream's expected replies.
fn expected_units(stream: &Stream, batch: usize) -> Vec<String> {
    stream
        .expect
        .chunks(batch)
        .map(|c| {
            if batch == 1 {
                c[0].clone()
            } else {
                let mut s = format!("OKBATCH {}", c.len());
                for e in c {
                    s.push('\n');
                    s.push_str(e);
                }
                s
            }
        })
        .collect()
}

/// The warm-up and every load phase as one stream, in execution order.
fn concat(warm: &Stream, load: &e2e::Load) -> Stream {
    let mut s = Stream::default();
    for src in std::iter::once(warm).chain(load.phases().map(|(p, _)| p)) {
        for (r, e) in src.reqs.iter().zip(&src.expect) {
            s.reqs.push(gen::Req {
                line: r.line.clone(),
                verb: r.verb,
                conn: r.conn,
            });
            s.expect.push(e.clone());
        }
    }
    s
}

/// Apply logged op lines to a monitor (what recovery replay does).
fn fold_ops(monitor: &mut StabilityMonitor, ops: &[String]) {
    for op in ops {
        match Request::parse(op).expect("logged ops parse") {
            Request::Ingest(c, d, items) => {
                let _ = monitor.ingest(c, d, &Basket::new(items));
            }
            Request::Flush(d) => {
                let _ = monitor.flush_until(d);
            }
            other => panic!("unexpected logged op {other:?}"),
        }
    }
}

/// The traced run of one workload.
pub fn run(cfg: &Cfg, rep: &mut Report) {
    let z = Sizes::of(cfg);
    let batch = if cfg.workload == Workload::WireB64 {
        64
    } else {
        1
    };
    let cap = match (cfg.workload, cfg.quick) {
        (_, true) => z.closed.max(400),
        (Workload::WireB64, _) => z.closed.min(30_000),
        _ => 12_000,
    };
    let open_cap = ((cfg.rate * 1.5).round() as usize).max(50);
    let mut tr = Tracer::new(true);
    let tdir = cfg.work.join("trace");
    std::fs::create_dir_all(&tdir).expect("create trace dir");

    // Inputs: the stream, the state it starts from, and the receipts the
    // offline layers load.
    let months;
    let stream;
    let load;
    let warm;
    let start: Box<dyn Fn() -> (StabilityMonitor, u64)>;
    let receipts_csv: String;
    let taxonomy_csv: Option<String>;
    let recovery_dir: PathBuf;
    let fallback;
    let restart_state;
    match cfg.workload {
        Workload::Restart => {
            months = 1;
            let dir = tdir.join("state");
            let inputs =
                e2e::restart_inputs(cfg.seed, z.resident, z.tail, [z.warm, cap, open_cap], &dir);
            stream = concat(&inputs.warm, &inputs.load);
            load = inputs.load;
            warm = inputs.warm;
            receipts_csv =
                receipts_to_csv(&gen::resident_store(cfg.seed, z.resident, &inputs.tail));
            taxonomy_csv = None;
            let d = dir.clone();
            start = Box::new(move || {
                let (m, stats) = recover(&d, None).expect("recover restart state");
                (m, stats.next_seq)
            });
            recovery_dir = dir;
            fallback = None;
            restart_state = true;
        }
        _ => {
            months = gen::WINDOW_MONTHS;
            let inputs = e2e::wire_inputs(cfg.seed, z.warm, cap, open_cap);
            stream = concat(&inputs.warm, &inputs.load);
            load = inputs.load;
            warm = inputs.warm;
            if cfg.workload == Workload::Offline {
                let dir = tdir.join("offline");
                e2e::offline_inputs(cfg.seed, z.offline_customers, &dir);
                receipts_csv = std::fs::read_to_string(dir.join(offline::RECEIPTS_FILE))
                    .expect("read receipts");
                taxonomy_csv = Some(
                    std::fs::read_to_string(dir.join(offline::TAXONOMY_FILE))
                        .expect("read taxonomy"),
                );
            } else {
                receipts_csv = receipts_to_csv(&inputs.dataset.store);
                taxonomy_csv = Some(taxonomy_to_csv(&inputs.dataset.taxonomy));
            }
            let spec = WindowSpec::months(gen::origin(), months);
            start = Box::new(move || {
                (
                    StabilityMonitor::new(spec, gen::params())
                        .with_max_explanations(gen::MAX_EXPLANATIONS),
                    1,
                )
            });
            recovery_dir = tdir.join("recovery");
            fallback = Some(Fallback {
                spec,
                params: gen::params(),
                max_explanations: gen::MAX_EXPLANATIONS,
            });
            restart_state = false;
        }
    }
    let units = units(&stream, batch);
    let expect = expected_units(&stream, batch);
    let n_req = stream.len() as f64;

    // 1. Through the engine.
    let (m, next_seq) = start();
    let engine_dir = tdir.join("engine");
    let (engine_out, engine_wall) = engine_path(
        &mut tr,
        ShardedMonitor::from_monitor(m, SHARDS),
        next_seq,
        &engine_dir,
        &units,
        batch,
    );
    // 2. Through the stages, traced, then 3. untraced.
    let (m, _) = start();
    let (direct_out, traced_wall, counts) = direct_path(
        &mut tr,
        ShardedMonitor::from_monitor(m, SHARDS),
        next_seq,
        &tdir.join("direct"),
        &units,
        batch > 1,
    );
    let (m, _) = start();
    let mut off = Tracer::new(false);
    let (plain_out, plain_wall, _) = direct_path(
        &mut off,
        ShardedMonitor::from_monitor(m, SHARDS),
        next_seq,
        &tdir.join("plain"),
        &units,
        batch > 1,
    );
    for (what, outs) in [
        ("engine", &engine_out),
        ("direct stages", &direct_out),
        ("untraced stages", &plain_out),
    ] {
        let bad = outs.iter().zip(&expect).filter(|(a, b)| a != b).count();
        rep.attempted += outs.len() as u64;
        rep.failed += bad as u64;
        if bad > 0 {
            let (a, b) = outs
                .iter()
                .zip(&expect)
                .find(|(a, b)| a != b)
                .expect("a mismatch");
            rep.mismatch(format!(
                "{what}: {bad} replies differ from the expected; first got {a:?}, expected {b:?}"
            ));
        }
    }
    let direct_vs_engine = direct_out
        .iter()
        .zip(&engine_out)
        .filter(|(a, b)| a != b)
        .count();
    if direct_vs_engine > 0 {
        rep.mismatch(format!(
            "{direct_vs_engine} direct-stage replies differ from the engine's"
        ));
    }
    rep.note("direct_equals_engine", direct_vs_engine == 0);

    // 4. Checkpoint, restore and recovery.
    if !restart_state {
        // Checkpoint the state after the first half of the engine's log,
        // and keep the whole log as the tail to replay.
        std::fs::create_dir_all(&recovery_dir).expect("create recovery dir");
        let records = read_records(&engine_dir.join(WAL_FILE))
            .expect("read engine wal")
            .records;
        let half = records.len() / 2;
        let (mut m, _) = start();
        let ops: Vec<String> = records[..half].iter().map(|r| r.op.clone()).collect();
        fold_ops(&mut m, &ops);
        let lsn = records
            .get(half.saturating_sub(1))
            .map(|r| r.seq)
            .unwrap_or(0);
        checkpoint::write_binary(&recovery_dir, lsn, &m.snapshot_bytes())
            .expect("write checkpoint");
        std::fs::copy(engine_dir.join(WAL_FILE), recovery_dir.join(WAL_FILE)).expect("copy wal");
    }
    let (_, ckpt_path) = checkpoint::list(&recovery_dir)
        .expect("list checkpoints")
        .into_iter()
        .next()
        .expect("a checkpoint");
    let (ckpt, read_s) = tr.time("checkpoint.read", || {
        checkpoint::read(&ckpt_path).expect("checkpoint verifies")
    });
    let (restored, restore_s) = tr.time("monitor.restore_any", || {
        StabilityMonitor::restore_any(&ckpt.body).expect("checkpoint restores")
    });
    let resident = restored.num_customers().max(1) as f64;
    let file_bytes = std::fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0) as f64;
    let heap = restored.heap_bytes() as f64;
    drop(restored);
    let ((_, stats), recover_s) = tr.time("recovery.recover", || {
        recover(&recovery_dir, fallback.as_ref()).expect("recover")
    });
    let replay_s = (recover_s - read_s - restore_s).max(0.0);

    // 5. Against the real server: client round trips and open-loop
    // lateness.
    let server_dir = if restart_state {
        recovery_dir.clone()
    } else {
        tdir.join("server")
    };
    let server = Server::spawn(&cfg.server_bin, &server_dir, months, &cfg.log);
    // Closed-loop phases run with one frame in flight, so a round trip
    // is one request's (or one frame's) own.
    let (mut rtt_ms, mut rtt_n, mut lateness) = (0.0, 0u64, Vec::new());
    for (phase, open) in std::iter::once((&warm, false)).chain(load.phases()) {
        let t = Instant::now();
        let rate = open.then_some(cfg.rate);
        let r = if batch == 1 {
            wire::run_lines(&server.addr, phase, 2, rate)
        } else {
            wire::run_frames(
                &server.addr,
                phase,
                batch,
                1,
                rate.map(|r| r / batch as f64),
            )
        };
        tr.push(
            if open {
                "client.open_loop"
            } else {
                "client.closed_loop"
            },
            t,
            t.elapsed(),
        );
        if open {
            lateness.extend_from_slice(&r.late_ms);
        } else {
            rtt_ms += r.latency_ms.iter().map(|l| l.1).sum::<f64>();
            rtt_n += r.requests;
        }
        rep.attempted += r.requests;
        rep.failed += r.mismatches;
        if let Some(m) = &r.first_mismatch {
            rep.mismatch(format!("server: {m}"));
        }
    }
    server.kill();

    // 6. The offline layers on this workload's receipts.
    let pass = offline::run_pass(&receipts_csv, taxonomy_csv.as_deref(), months);
    let mut at = pass.started;
    for (name, d) in [
        ("store.receipts_from_csv", pass.load),
        ("store.project_to_segments", pass.project),
        ("store.windowed_database", pass.windowing),
        ("core.compute", pass.compute),
        ("core.rank_at", pass.rank),
    ] {
        tr.push(name, at, d);
        at += d;
    }

    // Metrics.
    let totals = tr.totals();
    let total = |name: &str| totals.get(name).map(|t| t.1 as f64).unwrap_or(0.0);
    let count = |name: &str| totals.get(name).map(|t| t.0 as f64).unwrap_or(0.0);
    let engine_ns = engine_wall.as_nanos() as f64;
    let stages = [
        "protocol.parse",
        "protocol.render",
        "wal.append",
        "wal.commit",
        "shard.apply",
        "shard.close",
        "shard.score",
    ];
    let stage_sum: f64 = stages.iter().map(|s| total(s)).sum();
    rep.put("protocol.parse_ns", total("protocol.parse") / n_req, "ns");
    rep.put("protocol.render_ns", total("protocol.render") / n_req, "ns");
    rep.put(
        "protocol.reply_bytes_per_req",
        counts.reply_bytes as f64 / n_req,
        "count",
    );
    rep.put(
        "wal.append_ns",
        total("wal.append") / count("wal.append").max(1.0),
        "ns",
    );
    rep.put(
        "wal.commit_ns",
        total("wal.commit") / count("wal.commit").max(1.0),
        "ns",
    );
    rep.put("wal.fsyncs_per_req", counts.fsyncs as f64 / n_req, "count");
    rep.put(
        "wal.bytes_per_user_byte",
        counts.wal_bytes as f64 / counts.user_bytes.max(1) as f64,
        "ratio",
    );
    rep.put("wal.errors", counts.wal_errors as f64, "count");
    rep.put(
        "shard.apply_ns",
        total("shard.apply") / count("shard.apply").max(1.0),
        "ns",
    );
    rep.put(
        "shard.close_ns",
        total("shard.close") / (counts.windows_closed.max(1) as f64),
        "ns",
    );
    rep.put(
        "shard.windows_closed_per_req",
        counts.windows_closed as f64 / n_req,
        "count",
    );
    rep.put(
        "shard.score_ns",
        total("shard.score") / count("shard.score").max(1.0),
        "ns",
    );
    let respond_ns = engine_ns / n_req;
    rep.put("engine.respond_ns", respond_ns, "ns");
    rep.put("engine.stage_coverage", stage_sum / engine_ns, "ratio");
    let rtt_ns = rtt_ms * 1e6 / rtt_n.max(1) as f64;
    rep.put("server.overhead_ns", rtt_ns - respond_ns, "ns");
    lateness.sort_by(f64::total_cmp);
    rep.put("client.late_p99_ms", percentile(&lateness, 99.0), "ms");
    rep.put("checkpoint.read_s", read_s, "s");
    rep.put("checkpoint.bytes_per_customer", file_bytes / resident, "B");
    rep.put("monitor.restore_s", restore_s, "s");
    rep.put("monitor.heap_bytes_per_customer", heap / resident, "B");
    rep.put("recovery.replay_s", replay_s, "s");
    rep.put("recovery.replayed_records", stats.replayed as f64, "count");
    rep.put(
        "recovery.replay_ns_per_record",
        replay_s * 1e9 / stats.replayed.max(1) as f64,
        "ns",
    );
    rep.put("store.load_s", pass.load.as_secs_f64(), "s");
    rep.put("store.windowing_s", pass.windowing.as_secs_f64(), "s");
    rep.put("core.compute_s", pass.compute.as_secs_f64(), "s");
    rep.put("core.rank_s", pass.rank.as_secs_f64(), "s");
    let traced_rps = n_req / traced_wall.as_secs_f64();
    let plain_rps = n_req / plain_wall.as_secs_f64();
    rep.put(
        "trace.overhead_share",
        1.0 - traced_rps / plain_rps,
        "ratio",
    );

    rep.note("trace.traced_req_per_s", traced_rps);
    rep.note("trace.untraced_req_per_s", plain_rps);
    rep.note("trace.overhead_req_per_s", traced_rps - plain_rps);
    rep.note("trace.requests", n_req);
    rep.note("trace.batch", batch);
    rep.note("client.round_trip_ns", rtt_ns);
    for (name, (n, tot, own)) in &totals {
        rep.note(
            &format!("self.{name}"),
            format!(
                "{n} spans, total {:.3} ms, self {:.3} ms",
                *tot as f64 / 1e6,
                *own as f64 / 1e6
            ),
        );
    }
    let path = cfg.out_dir.join(format!(
        "trace-{}-seed{}.csv",
        cfg.workload.name(),
        cfg.seed
    ));
    match tr.write(&path) {
        Ok(()) => rep.note("trace.spans_file", json_str(&path.display().to_string())),
        Err(e) => rep.note("trace.spans_file", format!("not written: {e}")),
    }
}
