//! The end-to-end runs (`--trace 0`): each workload sets up its inputs
//! several times, runs fixed closed-loop chunks to completion
//! alternately with open-loop chunks at a fixed rate, restarts the
//! server (or the offline pipeline's process) several times, then
//! checks every output.

use crate::gen::{self, Stream, WireReceipt};
use crate::offline::{self, RECEIPTS_FILE, TAXONOMY_FILE};
use crate::util::{
    fnv1a, good_decile, good_quartile, percentile, slice_percentiles, slice_rates, Better, Mix,
    Report,
};
use crate::wire::{self, PhaseResult, Server};
use crate::{Cfg, Workload};
use attrition_core::StabilityMonitor;
use attrition_datagen::GeneratedDataset;
use attrition_serve::wal::{SyncPolicy, Wal, WAL_FILE};
use attrition_store::csv_io::{receipts_to_csv, taxonomy_to_csv};
use attrition_store::WindowSpec;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The closed- and open-loop load of a run alternates in this many
/// chunks, so both are sampled across the whole run and a slow stretch
/// of the machine touches a few slices, not a whole metric.
pub const CHUNKS: usize = 4;
/// Slices each closed-loop chunk's throughput is cut into.
const RATE_SLICES: usize = 5;
/// Samples behind one slice's latency percentiles on the server
/// workloads: short slices, so most of them fall between the storage
/// stalls of a shared host.
const LATENCY_SLICE: usize = 300;
/// The same per `BATCH 64` frame: a frame carries 64 requests' worth of
/// storage time, so far fewer frames fit in a run.
const LATENCY_SLICE_FRAMES: usize = 100;
/// The same in process (`offline`), where there is no storage to stall:
/// long enough that a slice's p99 has ten samples beyond it.
const LATENCY_SLICE_IN_PROCESS: usize = 1000;

/// Fixed sizes of one run. Stream lengths scale with `--seconds` and
/// never with the speed of the code under test, so both sides of a
/// comparison execute identical work.
pub struct Sizes {
    pub setups: usize,
    pub warm: usize,
    pub closed: usize,
    pub open_secs: f64,
    pub restarts: usize,
    pub resident: u64,
    pub tail: usize,
    pub offline_customers: usize,
    pub passes: usize,
}

impl Sizes {
    pub fn of(cfg: &Cfg) -> Sizes {
        let s = cfg.seconds / 10.0;
        let scaled = |n: f64| ((n * s).round() as usize).max(1);
        let wire = matches!(cfg.workload, Workload::WireB1 | Workload::WireB64);
        let mut z = Sizes {
            setups: if wire { 5 } else { 3 },
            warm: 400,
            closed: match cfg.workload {
                Workload::WireB1 => scaled(36_000.0),
                Workload::WireB64 => scaled(50_000.0),
                Workload::Restart => scaled(20_000.0),
                Workload::Offline => 0,
            },
            open_secs: match cfg.workload {
                Workload::WireB1 => 6.0,
                Workload::WireB64 => 12.0,
                Workload::Restart => 8.0,
                Workload::Offline => 4.0,
            } * s,
            restarts: match cfg.workload {
                Workload::WireB1 | Workload::WireB64 => 10,
                Workload::Restart => 7,
                Workload::Offline => 5,
            },
            resident: 400_000,
            tail: 20_000,
            offline_customers: 4_000,
            passes: scaled(6.0).max(3),
        };
        if cfg.quick {
            z.setups = 1;
            z.warm = 50;
            z.closed = z.closed.min(600);
            z.open_secs = 0.3;
            z.restarts = 2;
            z.resident = 3_000;
            z.tail = 200;
            z.offline_customers = 120;
            z.passes = 2;
        }
        z
    }
}

// ---------------------------------------------------------------------
// Inputs.

/// A paper-preset stream split into phases over disjoint customers,
/// with the expected replies: warm-up, then [`CHUNKS`] × (closed loop,
/// open loop), folded into the reference in that order.
pub struct WireInputs {
    pub dataset: GeneratedDataset,
    pub warm: Stream,
    pub load: Load,
    pub reference: StabilityMonitor,
}

/// The measured load: closed- and open-loop chunks, run alternately.
pub struct Load {
    pub closed: Vec<Stream>,
    pub open: Vec<Stream>,
}

impl Load {
    /// Every phase in execution order, flagged `true` when open loop.
    pub fn phases(&self) -> impl Iterator<Item = (&Stream, bool)> {
        self.closed
            .iter()
            .zip(&self.open)
            .flat_map(|(c, o)| [(c, false), (o, true)])
    }
}

/// Phase caps in execution order: warm-up, then the alternating chunks.
fn phase_caps(warm: usize, closed: usize, open: usize) -> Vec<usize> {
    let mut caps = vec![warm];
    for _ in 0..CHUNKS {
        caps.push(closed.div_ceil(CHUNKS));
        caps.push(open.div_ceil(CHUNKS));
    }
    caps
}

fn split_phases(mut phases: Vec<Stream>) -> (Stream, Load) {
    let rest = phases.split_off(1);
    let warm = phases.pop().expect("a warm-up phase");
    let mut load = Load {
        closed: Vec::new(),
        open: Vec::new(),
    };
    for (i, s) in rest.into_iter().enumerate() {
        if i % 2 == 0 {
            load.closed.push(s);
        } else {
            load.open.push(s);
        }
    }
    (warm, load)
}

/// Requests a customer's receipts turn into: one `INGEST` each plus the
/// `SCORE` share.
fn est_requests(receipts: usize) -> usize {
    receipts + receipts / gen::SCORE_EVERY
}

pub fn wire_inputs(seed: u64, warm: usize, closed: usize, open: usize) -> WireInputs {
    let caps = phase_caps(warm, closed, open);
    // The paper preset averages ~112 receipts per customer.
    let per_customer = est_requests(112);
    let customers = caps.iter().map(|c| c / per_customer + 2).sum::<usize>() * 5 / 4 + 8;
    let dataset = gen::paper_dataset(seed, customers);
    let segments = dataset.segment_store();
    let ids = gen::shuffled_customers(&segments, seed);
    let mut reference = StabilityMonitor::new(
        WindowSpec::months(gen::origin(), gen::WINDOW_MONTHS),
        gen::params(),
    )
    .with_max_explanations(gen::MAX_EXPLANATIONS);
    let mut next = 0;
    let phases = caps
        .iter()
        .map(|&cap| {
            let start = next;
            let mut est = 0;
            while est < cap && next < ids.len() {
                est += est_requests(
                    segments
                        .customer_rows(ids[next])
                        .expect("listed customer")
                        .len(),
                );
                next += 1;
            }
            let receipts = gen::wire_receipts(&segments, &ids[start..next]);
            gen::build_stream(&receipts, true, 2, cap, &mut reference)
        })
        .collect();
    let (warm, load) = split_phases(phases);
    WireInputs {
        dataset,
        warm,
        load,
        reference,
    }
}

/// A WAL directory holding a binary checkpoint of `n` resident
/// customers plus a WAL tail of `tail` ingests, and the load on the
/// restarted state: closed-loop chunks of next-window ingests (with
/// `SCORE` reads) over further customers, and open-loop chunks of
/// `SCORE` reads only, of customers nothing ingests — read-only, so
/// their latency carries no fsync.
pub struct RestartInputs {
    pub reference: StabilityMonitor,
    pub tail: Vec<u64>,
    pub warm: Stream,
    pub load: Load,
    /// Customers the streams touch.
    pub touched: Vec<u64>,
}

/// LSN the restart workload's checkpoint covers.
pub fn resident_lsn(n: u64) -> u64 {
    n * u64::from(gen::RESIDENT_WINDOWS)
}

pub fn restart_inputs(
    seed: u64,
    n: u64,
    tail: usize,
    [warm, closed, open]: [usize; 3],
    dir: &Path,
) -> RestartInputs {
    std::fs::create_dir_all(dir).expect("create wal dir");
    let mut reference = gen::resident_monitor(seed, n);
    let order = gen::resident_order(seed, n);
    let lsn = resident_lsn(n);
    attrition_serve::checkpoint::write_binary(dir, lsn, &reference.snapshot_bytes())
        .expect("write checkpoint");
    let mut wal = Wal::open(&dir.join(WAL_FILE), SyncPolicy::Never, lsn + 1).expect("open wal");
    let tail_ids: Vec<u64> = order[..tail.min(order.len())].to_vec();
    let tail_stream = gen::build_stream(
        &next_window(seed, &tail_ids),
        false,
        2,
        usize::MAX,
        &mut reference,
    );
    for req in &tail_stream.reqs {
        if req.verb == gen::Verb::Ingest {
            wal.append(&req.line).expect("append wal tail");
        }
    }
    wal.sync().expect("sync wal tail");
    let mut next = tail_ids.len();
    let mut back = order.len();
    let mut touched = Vec::new();
    let phases = phase_caps(warm, closed, open)
        .into_iter()
        .enumerate()
        .map(|(i, cap)| {
            if i > 0 && i % 2 == 0 {
                let take = cap.min(back - next);
                back -= take;
                return gen::score_stream(&order[back..back + take], 2, &reference);
            }
            let take = (cap * gen::SCORE_EVERY)
                .div_ceil(gen::SCORE_EVERY + 1)
                .min(back - next);
            let ids = &order[next..next + take];
            next += take;
            touched.extend_from_slice(ids);
            gen::build_stream(&next_window(seed, ids), false, 2, cap, &mut reference)
        })
        .collect();
    let (warm, load) = split_phases(phases);
    RestartInputs {
        reference,
        tail: tail_ids,
        warm,
        load,
        touched,
    }
}

/// Each customer's receipt in the first window after the checkpointed
/// ones (it closes their last checkpointed window).
fn next_window(seed: u64, ids: &[u64]) -> Vec<WireReceipt> {
    ids.iter()
        .map(|&c| gen::resident_receipt(seed, c, gen::RESIDENT_WINDOWS))
        .collect()
}

/// The offline workload's files: the paper preset, product level.
pub fn offline_inputs(seed: u64, customers: usize, dir: &Path) -> GeneratedDataset {
    std::fs::create_dir_all(dir).expect("create offline dir");
    let dataset = gen::paper_dataset(seed, customers);
    std::fs::write(dir.join(RECEIPTS_FILE), receipts_to_csv(&dataset.store))
        .expect("write receipts");
    std::fs::write(dir.join(TAXONOMY_FILE), taxonomy_to_csv(&dataset.taxonomy))
        .expect("write taxonomy");
    dataset
}

// ---------------------------------------------------------------------
// Runs.

fn check_phase(rep: &mut Report, name: &str, r: &PhaseResult) {
    rep.attempted += r.requests;
    rep.failed += r.mismatches;
    if let Some(m) = &r.first_mismatch {
        rep.mismatch(format!(
            "{name}: {} replies differ; first: {m}",
            r.mismatches
        ));
    }
}

/// Per-slice figures gathered across a run's chunks.
#[derive(Default)]
struct Slices {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    late: Vec<f64>,
    samples: usize,
}

impl Slices {
    /// Add one open-loop chunk, cut into slices of at least `slice`
    /// samples.
    fn open(&mut self, latency_ms: &[(f64, f64)], late_ms: &[f64], slice: usize) {
        let k = (latency_ms.len() / slice).max(1);
        self.p50.extend(slice_percentiles(latency_ms, 50.0, k));
        self.p99.extend(slice_percentiles(latency_ms, 99.0, k));
        self.samples += latency_ms.len();
        self.late.extend_from_slice(late_ms);
    }

    /// `p50_ms` / `p99_ms`: the lower decile over all open-loop slices
    /// of each slice's percentile, timed from due times.
    fn report(&mut self, rep: &mut Report, per: &str) {
        rep.put_n(
            "p50_ms",
            good_decile(&self.p50, Better::Lower),
            "ms",
            self.samples,
        );
        rep.put_n(
            "p99_ms",
            good_decile(&self.p99, Better::Lower),
            "ms",
            self.samples,
        );
        self.late.sort_by(f64::total_cmp);
        rep.note("latency_per", per);
        rep.note(
            "latency_slices",
            format!(
                "{} of ~{} samples",
                self.p99.len(),
                self.samples / self.p99.len().max(1)
            ),
        );
        rep.note(
            "slice_p50_ms",
            self.p50
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        rep.note(
            "slice_p99_ms",
            self.p99
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        rep.note("client.late_p99_ms", percentile(&self.late, 99.0));
    }
}

/// Run the load's chunks alternately. `req_per_s` is the upper decile
/// of the completion rates of all closed-loop slices and
/// `receipts_per_s` its `INGEST` share; latency as in [`Slices::report`],
/// per request or per frame of `batch` requests.
fn serve_load(rep: &mut Report, addr: &str, load: &Load, batch: usize, rate: f64) {
    let mut sl = Slices::default();
    let (mut requests, mut ingests) = (0u64, 0usize);
    for (stream, open) in load.phases() {
        if open {
            let o = run_stream(addr, stream, batch, Some(rate));
            check_phase(rep, "open loop", &o);
            let slice = if batch == 1 {
                LATENCY_SLICE
            } else {
                LATENCY_SLICE_FRAMES
            };
            sl.open(&o.latency_ms, &o.late_ms, slice);
        } else {
            let c = run_stream(addr, stream, batch, None);
            check_phase(rep, "closed loop", &c);
            sl.rates.extend(slice_rates(&c.done, RATE_SLICES));
            requests += c.requests;
            ingests += stream.ingests();
        }
    }
    let req_per_s = good_decile(&sl.rates, Better::Higher);
    rep.put_n("req_per_s", req_per_s, "1/s", requests as usize);
    rep.put_n(
        "receipts_per_s",
        req_per_s * ingests as f64 / requests as f64,
        "1/s",
        ingests,
    );
    sl.report(rep, if batch == 1 { "request" } else { "frame" });
}

fn run_stream(addr: &str, stream: &Stream, batch: usize, rate: Option<f64>) -> PhaseResult {
    if batch == 1 {
        wire::run_lines(addr, stream, 2, rate)
    } else {
        wire::run_frames(addr, stream, batch, 4, rate.map(|r| r / batch as f64))
    }
}

/// Restart the server `restarts` times on `dir` (each crashed with
/// SIGKILL once its first `SCORE` is answered, so the directory is left
/// as found); the last one keeps running. Reports `restart_s` and
/// `rss_bytes_per_customer`.
fn restarts(
    cfg: &Cfg,
    rep: &mut Report,
    dir: &Path,
    months: u32,
    n: usize,
    probe: u64,
    expect: &str,
) -> Server {
    let mut times = Vec::new();
    let mut rss = Vec::new();
    let mut last = None;
    for i in 0..n {
        let (server, t, reply) = wire::restart(&cfg.server_bin, dir, months, &cfg.log, probe);
        times.push(t.as_secs_f64());
        rss.push(server.rss_bytes() as f64);
        rep.attempted += 1;
        if reply != expect {
            rep.failed += 1;
            rep.mismatch(format!(
                "restart {i}: SCORE {probe} got {reply:?}, expected {expect:?}"
            ));
        }
        if i + 1 == n {
            last = Some(server);
        } else {
            server.kill();
        }
    }
    rep.put_n(
        "restart_s",
        good_decile(&times, Better::Lower),
        "s",
        times.len(),
    );
    rep.note("restart_rss_bytes", good_quartile(&rss, Better::Lower));
    last.expect("at least one restart")
}

/// End of every server workload: `SCORE` the given customers, shut the
/// server down, and check its final checkpoint against the reference.
fn final_checks(
    rep: &mut Report,
    server: Server,
    dir: &Path,
    customers: &[u64],
    reference: &StabilityMonitor,
    what: &str,
) {
    let bad = wire::score_all(&server.addr, customers, |c| {
        let mut s = String::new();
        gen::render_score(&mut s, reference, c);
        s
    });
    rep.attempted += customers.len() as u64;
    rep.failed += bad.len() as u64;
    if let Some(first) = bad.first() {
        rep.mismatch(format!(
            "{what}: {} SCORE lines differ from the reference fold; first: {first}",
            bad.len()
        ));
    }
    rep.attempted += 1;
    if !server.shutdown() {
        rep.failed += 1;
        rep.mismatch(format!("{what}: SHUTDOWN did not exit cleanly"));
        return;
    }
    match wire::newest_checkpoint(dir) {
        Some(body) if body == reference.snapshot_bytes() => {}
        Some(_) => {
            rep.failed += 1;
            rep.mismatch(format!(
                "{what}: final checkpoint differs from the reference monitor's snapshot"
            ));
        }
        None => {
            rep.failed += 1;
            rep.mismatch(format!("{what}: no readable final checkpoint"));
        }
    }
}

fn rss_per_customer(rep: &mut Report, customers: usize) {
    let rss = rep
        .notes
        .iter()
        .find(|(k, _)| k == "restart_rss_bytes")
        .and_then(|(_, v)| v.parse::<f64>().ok())
        .expect("restarts ran");
    rep.put("rss_bytes_per_customer", rss / customers as f64, "B");
    rep.note("resident_customers", customers);
}

pub fn run_wire(cfg: &Cfg, batch: usize, rep: &mut Report) {
    let z = Sizes::of(cfg);
    let open_cap = (cfg.rate * z.open_secs).round() as usize;
    let mut setup = Vec::new();
    let mut live = None;
    for i in 0..z.setups {
        let t = Instant::now();
        let inputs = wire_inputs(cfg.seed, z.warm, z.closed, open_cap);
        let dir = cfg.work.join(format!("wal-{i}"));
        let server = Server::spawn(&cfg.server_bin, &dir, gen::WINDOW_MONTHS, &cfg.log);
        let warm = run_stream(&server.addr, &inputs.warm, batch, None);
        setup.push(t.elapsed().as_secs_f64());
        if let Some((old, old_dir, _, _)) = live.replace((server, dir, inputs, warm)) {
            old.kill();
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (server, dir, inputs, warm) = live.expect("at least one setup");
    rep.put_n(
        "setup_s",
        good_quartile(&setup, Better::Lower),
        "s",
        setup.len(),
    );
    check_phase(rep, "warm-up", &warm);

    serve_load(rep, &server.addr, &inputs.load, batch, cfg.rate);

    let customers: Vec<u64> = inputs
        .reference
        .customer_ids()
        .iter()
        .map(|c| c.raw())
        .collect();
    let bad = wire::score_all(&server.addr, &customers, |c| {
        let mut s = String::new();
        gen::render_score(&mut s, &inputs.reference, c);
        s
    });
    rep.attempted += customers.len() as u64;
    rep.failed += bad.len() as u64;
    if let Some(first) = bad.first() {
        rep.mismatch(format!(
            "live server: {} SCORE lines differ; first: {first}",
            bad.len()
        ));
    }
    server.kill();

    let probe = customers[customers.len() / 2];
    let mut expect = String::new();
    gen::render_score(&mut expect, &inputs.reference, probe);
    let server = restarts(
        cfg,
        rep,
        &dir,
        gen::WINDOW_MONTHS,
        z.restarts,
        probe,
        &expect,
    );
    rss_per_customer(rep, customers.len());
    final_checks(
        rep,
        server,
        &dir,
        &customers,
        &inputs.reference,
        "recovered server",
    );
}

pub fn run_restart(cfg: &Cfg, rep: &mut Report) {
    let z = Sizes::of(cfg);
    let open_cap = (cfg.rate * z.open_secs).round() as usize;
    let mut setup = Vec::new();
    let mut kept: Option<(PathBuf, RestartInputs)> = None;
    for i in 0..z.setups {
        let dir = cfg.work.join(format!("state-{i}"));
        let t = Instant::now();
        let inputs = restart_inputs(
            cfg.seed,
            z.resident,
            z.tail,
            [z.warm, z.closed, open_cap],
            &dir,
        );
        setup.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = kept.replace((dir, inputs)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (dir, inputs) = kept.expect("at least one setup");
    rep.put_n(
        "setup_s",
        good_quartile(&setup, Better::Lower),
        "s",
        setup.len(),
    );

    // The state the restarts must recover: checkpoint plus tail, before
    // any of the streams ran.
    let probe = inputs.tail[0];
    let expect = inputs.probe_reply(probe);
    let server = restarts(cfg, rep, &dir, 1, z.restarts, probe, &expect);
    rss_per_customer(rep, z.resident as usize);

    let warm = wire::run_lines(&server.addr, &inputs.warm, 2, None);
    check_phase(rep, "warm-up", &warm);
    serve_load(rep, &server.addr, &inputs.load, 1, cfg.rate);

    // Every touched customer plus a spread sample of the untouched ones.
    let mut sample = inputs.touched.clone();
    sample.extend(inputs.tail.iter().copied());
    sample.extend((1..=z.resident).step_by(97));
    final_checks(
        rep,
        server,
        &dir,
        &sample,
        &inputs.reference,
        "restarted server",
    );
}

impl RestartInputs {
    /// The reply the restarted server owes to `SCORE probe` before any
    /// stream ran: the probe is a tail customer, which no stream touches.
    pub fn probe_reply(&self, probe: u64) -> String {
        let mut s = String::new();
        gen::render_score(&mut s, &self.reference, probe);
        s
    }
}

pub fn run_offline(cfg: &Cfg, rep: &mut Report) {
    let z = Sizes::of(cfg);
    let dir = cfg.work.join("offline");
    let mut setup = Vec::new();
    let mut receipts = String::new();
    let mut taxonomy = String::new();
    for _ in 0..z.setups {
        let t = Instant::now();
        offline_inputs(cfg.seed, z.offline_customers, &dir);
        receipts = std::fs::read_to_string(dir.join(RECEIPTS_FILE)).expect("read receipts");
        taxonomy = std::fs::read_to_string(dir.join(TAXONOMY_FILE)).expect("read taxonomy");
        let warm = offline::run_pass(&receipts, Some(&taxonomy), gen::WINDOW_MONTHS);
        std::hint::black_box(&warm.ranked);
        setup.push(t.elapsed().as_secs_f64());
    }
    rep.put_n(
        "setup_s",
        good_quartile(&setup, Better::Lower),
        "s",
        setup.len(),
    );

    // Rounds, each: one pass from file text to ranked explanations
    // (receipts_per_s), explanation queries over every customer in a
    // closed loop (req_per_s), and a chunk of open-loop queries at the
    // fixed rate (latency). Each metric is the good-side decile over the
    // rounds or slices.
    let mut rates = Vec::new();
    let mut sums = Vec::new();
    let mut sl = Slices::default();
    let mut out = String::new();
    let mut queries = 0usize;
    let mut pass = None;
    let count = (cfg.rate * z.open_secs / z.passes as f64).round() as usize;
    for round in 0..z.passes {
        let t = Instant::now();
        let text = std::fs::read_to_string(dir.join(RECEIPTS_FILE)).expect("read receipts");
        let p = offline::run_pass(&text, Some(&taxonomy), gen::WINDOW_MONTHS);
        rates.push(p.receipts as f64 / t.elapsed().as_secs_f64());
        sums.push(fnv1a(p.ranked.as_bytes()));
        let db = &p.db;
        let n = db.num_customers();
        let t = Instant::now();
        for i in 0..n {
            offline::explain(db, i, &mut out);
            std::hint::black_box(&out);
        }
        sl.rates.push(n as f64 / t.elapsed().as_secs_f64());
        queries += n;
        let mut order: Vec<usize> = (0..n).collect();
        Mix(cfg.seed ^ round as u64).shuffle(&mut order);
        let (mut lat, mut late) = (Vec::with_capacity(count), Vec::with_capacity(count));
        let t0 = Instant::now() + Duration::from_millis(20);
        for i in 0..count {
            // In process there is no server to share the CPU with, so
            // wait by spinning: a sleep's wake-up jitter would swamp
            // queries that take tens of microseconds.
            let due = t0 + Duration::from_secs_f64(i as f64 / cfg.rate);
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            offline::explain(db, order[i % n], &mut out);
            std::hint::black_box(&out);
            lat.push(((due - t0).as_secs_f64(), due.elapsed().as_secs_f64() * 1e3));
        }
        sl.open(&lat, &late, LATENCY_SLICE_IN_PROCESS);
        pass = Some(p);
    }
    let pass = pass.expect("at least one round");
    rep.attempted += (z.passes + queries + count * z.passes) as u64;
    rep.put_n(
        "receipts_per_s",
        good_decile(&rates, Better::Higher),
        "1/s",
        rates.len(),
    );
    rep.put_n(
        "req_per_s",
        good_decile(&sl.rates, Better::Higher),
        "1/s",
        queries,
    );
    sl.report(rep, "explanation query");
    rep.note("receipts", pass.receipts);

    // Restart: a fresh process from the files to its ranked output.
    let mut times = Vec::new();
    let mut hwm = Vec::new();
    for _ in 0..z.restarts {
        let t = Instant::now();
        let mut child = std::process::Command::new(std::env::current_exe().expect("own path"))
            .arg("offline-child")
            .arg(&dir)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("start offline child");
        let mut lines = std::io::BufReader::new(child.stdout.take().expect("piped")).lines();
        let ranked = lines.next().and_then(Result::ok).unwrap_or_default();
        times.push(t.elapsed().as_secs_f64());
        let peak = lines.next().and_then(Result::ok).unwrap_or_default();
        let ok = child.wait().map(|s| s.success()).unwrap_or(false);
        rep.attempted += 1;
        let want = format!("RANKED {:016x} {}", sums[0], pass.customers);
        if !ok || ranked != want {
            rep.failed += 1;
            rep.mismatch(format!(
                "offline child printed {ranked:?}, expected {want:?}"
            ));
        }
        hwm.push(
            peak.strip_prefix("HWM ")
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(f64::NAN),
        );
    }
    rep.put_n(
        "restart_s",
        good_decile(&times, Better::Lower),
        "s",
        times.len(),
    );
    rep.put(
        "rss_bytes_per_customer",
        good_quartile(&hwm, Better::Lower) / pass.customers as f64,
        "B",
    );
    rep.note("resident_customers", pass.customers);

    // Correctness: identical output on every pass, the stored checksum
    // for this seed, and agreement with a streaming-monitor fold.
    if sums.iter().any(|s| *s != sums[0]) {
        rep.failed += 1;
        rep.mismatch("offline passes disagree on the ranked output");
    }
    rep.note("rank_checksum", format!("{:016x}", sums[0]));
    match cfg.expect_checksum {
        Some(want) if want != sums[0] => {
            rep.failed += 1;
            rep.mismatch(format!(
                "rank checksum {:016x}, stored {want:016x}",
                sums[0]
            ));
        }
        Some(_) => rep.note("rank_checksum_stored", "match"),
        None => rep.note("rank_checksum_stored", "none for this seed"),
    }
    let bad = offline::monitor_cross_check(&receipts, &taxonomy, &pass.ranked);
    rep.failed += bad.len() as u64;
    if let Some(first) = bad.first() {
        rep.mismatch(format!(
            "{} ranked customers disagree with the monitor fold; first: {first}",
            bad.len()
        ));
    }
}
