//! CLI subcommand implementations.

use crate::args::Args;
use crate::labels_csv;
use attrition_core::{analyze_customer, StabilityEngine, StabilityMonitor, StabilityParams};
use attrition_datagen::{generate as generate_dataset, ScenarioConfig};
use attrition_eval::auroc;
use attrition_replica::{
    rejoin_via, FetchLoopConfig, PrimaryService, ReplClient, ReplicaConfig, ReplicaEngine,
};
use attrition_rfm::{out_of_fold_scores, RfmModel};
use attrition_serve::{
    DurabilityConfig, Fallback, ServerConfig, Service, ShardedMonitor, SyncPolicy,
};
use attrition_store::{
    csv_io, project_to_segments, DatasetStats, ReceiptStore, WindowAlignment, WindowSpec,
    WindowedDatabase,
};
use attrition_types::{Basket, CustomerId, SegmentId, Taxonomy, WindowIndex};
use attrition_util::table::fmt_f64;
use attrition_util::Table;
use std::error::Error;
use std::path::Path;
use std::sync::Arc;

type CliResult = Result<(), Box<dyn Error>>;

/// Flags every subcommand accepts, appended to each command's help.
const GLOBAL_FLAGS_HELP: &str = "\n\nGLOBAL FLAGS:\n    \
    --metrics[=text|json]  print pipeline metrics after the command (default text)";

/// Per-command help text.
pub fn help_for(command: &str) -> String {
    let body: String = match command {
        "generate" => "\
attrition generate — synthesize a dataset

FLAGS:
    --out DIR           output directory (required; created if missing)
    --preset NAME       paper | small (default: small)
    --format FMT        receipts format: csv | bin (default: csv)
    --seed N            override the preset's seed
    --loyal N           override the loyal cohort size
    --defectors N       override the defector cohort size
    --months N          override the observation length in months
    --onset N           override the defection onset month

Writes receipts.csv (or receipts.bin), taxonomy.csv and labels.csv into DIR."
            .into(),
        "stats" => "\
attrition stats — dataset description statistics

FLAGS:
    --receipts FILE     receipts CSV (required)
    --taxonomy FILE     taxonomy CSV (optional; enables segment counts)"
            .into(),
        "evaluate" => "\
attrition evaluate — per-window AUROC of both models

FLAGS:
    --receipts FILE     receipts CSV (required)
    --taxonomy FILE     taxonomy CSV (required; evaluation runs at segment level)
    --labels FILE       labels CSV (required)
    --alpha X           significance base α (default 2)
    --window N          window length in months (default 2)
    --folds N           RFM cross-fitting folds (default 5)"
            .into(),
        "explain" => "\
attrition explain — one customer's stability trajectory

FLAGS:
    --receipts FILE     receipts CSV (required)
    --taxonomy FILE     taxonomy CSV (required)
    --customer ID       customer to analyze (required)
    --alpha X           significance base α (default 2)
    --window N          window length in months (default 2)
    --top N             lost products shown per window (default 5)"
            .into(),
        "rank" => "\
attrition rank — the most at-risk customers at a window

FLAGS:
    --receipts FILE     receipts CSV/binary (required)
    --taxonomy FILE     taxonomy CSV (required)
    --window-index K    window to rank at (default: last complete window)
    --top N             list size (default 20)
    --alpha X           significance base α (default 2)
    --window N          window length in months (default 2)"
            .into(),
        "export" => "\
attrition export — write stability scores and explanations as CSV

FLAGS:
    --receipts FILE     receipts CSV/binary (required)
    --taxonomy FILE     taxonomy CSV (required)
    --out DIR           output directory (required; created if missing)
    --alpha X           significance base α (default 2)
    --window N          window length in months (default 2)
    --min-share X       minimum significance share for exported losses (default 0.02)

Writes stability_scores.csv and explanations.csv into DIR."
            .into(),
        "monitor" => "\
attrition monitor — replay receipts through the streaming monitor

FLAGS:
    --receipts FILE     receipts CSV (required)
    --taxonomy FILE     taxonomy CSV (required)
    --beta X            alert threshold on stability (default 0.6)
    --alpha X           significance base α (default 2)
    --window N          window length in months (default 2)
    --warmup N          windows to skip before alerting (default 3)"
            .into(),
        "serve" => "\
attrition serve — online scoring server (newline-delimited TCP protocol)

FLAGS:
    --addr HOST:PORT        bind address (default 127.0.0.1:7711; port 0 = ephemeral)
    --origin YYYY-MM-DD     window grid origin (required unless --restore)
    --window N              window length in months (default 2)
    --alpha X               significance base α (default 2)
    --shards N              monitor shards (default 8)
    --workers N             connection worker threads (default 4)
    --queue N               waiting connections before ERR busy (default 64)
    --read-timeout-ms N     idle connection timeout (default 5000)
    --snapshot PATH         binary snapshot written by SNAPSHOT and at shutdown
                            (`attrition dump PATH` prints it as text)
    --restore PATH          start from a --snapshot file (grid, α and
                            explanation depth come from its header;
                            --origin/--window/--alpha/--max-explanations
                            are rejected)
    --max-explanations N    lost products per closed-window explanation (default 5)

DURABILITY (see README's Durability section):
    --wal-dir DIR           write-ahead log + checkpoint directory; on start
                            the newest valid checkpoint is recovered and the
                            WAL replayed (--origin etc. only seed first boot;
                            conflicts with --restore)
    --sync-policy P         never | interval:N | always (default always)
    --checkpoint-every N    checkpoint every N logged requests (default 1024;
                            0 disables the count trigger)
    --checkpoint-secs N     checkpoint every N seconds (default 30; 0 disables)
    --keep-checkpoints N    checkpoints retained after rotation (default 2)

Serves INGEST/SCORE/FLUSH/SNAPSHOT/STATS/PING/SHUTDOWN until SHUTDOWN or
ctrl-c, then drains connections, writes the snapshot (if configured) and
prints a summary. With --wal-dir the exit code is nonzero when the final
checkpoint or snapshot failed (the WAL is retained; recovery replays it)
or when recovery finds acknowledged records in no readable checkpoint
and not in the WAL (it names their sequence numbers instead of serving
without them),
and the server also acts as a replication primary: `attrition replicate`
followers pull its WAL over the REPL verb (see README's Replication
section). See README's Serving section for the protocol."
            .into(),
        "replicate" => "\
attrition replicate — read-only replica of a `serve --wal-dir` primary

FLAGS:
    --primary HOST:PORT     the primary to pull the WAL from (required)
    --addr HOST:PORT        bind address (default 127.0.0.1:7712; port 0 = ephemeral)
    --wal-dir DIR           the replica's OWN wal directory (required; never
                            the primary's)
    --origin YYYY-MM-DD     window grid origin (required; only seeds first
                            boot — recovered or shipped state wins)
    --window N              window length in months (default 2)
    --alpha X               significance base α (default 2)
    --max-explanations N    lost products per explanation (default 5)
    --shards N              monitor shards (default 8)
    --workers N             connection worker threads (default 4)
    --queue N               waiting connections before ERR busy (default 64)
    --read-timeout-ms N     idle/replication connection timeout (default 5000)
    --fetch-interval-ms N   pause between fetches once caught up (default 100)
    --batch-max N           records requested per replication batch (default 1024)
    --sync-policy P         never | interval:N | always (default always)
    --checkpoint-every N    checkpoint every N applied records (default 1024)
    --checkpoint-secs N     checkpoint every N seconds (default 30; 0 disables)
    --keep-checkpoints N    checkpoints retained after rotation (default 2)
    --rejoin                run the divergence handshake against the primary
                            before serving: a deposed primary discards any
                            WAL suffix the new timeline disowned and heals
                            back in as a replica of the new epoch

Answers SCORE/STATS/PING locally while rejecting INGEST/FLUSH (read-only);
`PROMOTE` fsyncs the local WAL, durably bumps the epoch and starts
accepting writes — the promoted node then serves REPL to the next replica.
A fenced fetch triggers the rejoin handshake automatically; `--rejoin`
just runs it eagerly at startup. See README's Replication section for the
failover and rejoin walkthroughs."
            .into(),
        "dump" => "\
attrition dump — print a checkpoint or snapshot file's state as text

USAGE:
    attrition dump FILE

FILE is a `checkpoint-<lsn>.ckpt` from a --wal-dir (ATTRCKP2; its length
and checksum are verified first, and its LSN goes to stderr) or a file
written by `serve --snapshot` (ATTRMON1). Prints the monitor's text
rendering: a `#monitor,<origin days>,<window>,<alpha>,<max explanations>`
header, then per customer in id order `c,<id>,<window>,<windows seen>`,
one `i,<id>,<item>,<count>` row per tracked item and one `p,<id>,<item>,`
row per pending item. Nothing reads this text back. Any other or
corrupted file exits nonzero naming the failure."
            .into(),
        "scenarios" => "\
attrition scenarios — evaluate both models on the scenario library

FLAGS:
    --scenario NAME     run one scenario (default: all seven); one of
                        baseline, promo-shock, store-closure,
                        competitor-entry, seasonal-drift, household-coshop,
                        defection-mix
    --seed N            simulation seed (default: the paper seed)
    --quick             small population / short horizon (also enabled by
                        the ATTRITION_BENCH_QUICK environment variable)
    --out DIR           where scenario_eval.{json,csv} go (default: results)
    --window N          window length in months (default 2)
    --folds N           RFM cross-fitting folds (default 5)
    --fpr-budget X      loyal false-alarm budget for detection latency
                        (default 0.10)

Each scenario is simulated by the agent/event engine, which emits an
exact ground-truth label stream alongside the trips; both the stability
model and the RFM baseline are scored against it (final-window AUROC and
detection latency). Exits nonzero if any scenario yields an empty label
stream."
            .into(),
        other => return format!("no detailed help for {other:?}; run `attrition help`"),
    };
    format!("{body}{GLOBAL_FLAGS_HELP}")
}

fn load_store(path: &str) -> Result<ReceiptStore, Box<dyn Error>> {
    let _stage = attrition_obs::Stage::enter("ingest");
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read receipts file {path}: {e}"))?;
    // Auto-detect: binary columnar files carry a magic header.
    if bytes.starts_with(&attrition_store::binary_io::MAGIC) {
        return Ok(attrition_store::store_from_bytes(&bytes)?);
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| format!("{path} is neither a binary store nor UTF-8 CSV"))?;
    Ok(csv_io::receipts_from_csv(&text)?)
}

fn load_taxonomy(path: &str) -> Result<Taxonomy, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read taxonomy file {path}: {e}"))?;
    Ok(csv_io::taxonomy_from_csv(&text)?)
}

/// Window grid shared by evaluate/explain/monitor: anchored at the first
/// day of the earliest receipt's month.
fn derive_spec(store: &ReceiptStore, w_months: u32) -> Result<WindowSpec, Box<dyn Error>> {
    let (first, _) = store
        .date_range()
        .ok_or("receipts file contains no receipts")?;
    Ok(WindowSpec::months(first.first_of_month(), w_months))
}

/// `attrition generate`
pub fn generate(args: &Args) -> CliResult {
    let out = args.require("out")?;
    let mut cfg = match args.get("preset").unwrap_or("small") {
        "paper" => ScenarioConfig::paper_default(),
        "small" => ScenarioConfig::small(),
        other => return Err(format!("unknown preset {other:?} (paper|small)").into()),
    };
    cfg.seed = args.get_parsed("seed", cfg.seed)?;
    cfg.n_loyal = args.get_parsed("loyal", cfg.n_loyal)?;
    cfg.n_defectors = args.get_parsed("defectors", cfg.n_defectors)?;
    cfg.n_months = args.get_parsed("months", cfg.n_months)?;
    cfg.onset_month = args.get_parsed("onset", cfg.onset_month)?;
    if cfg.onset_month >= cfg.n_months {
        return Err(format!(
            "onset month {} must precede the end of the observation ({} months)",
            cfg.onset_month, cfg.n_months
        )
        .into());
    }

    if !args.get_bool("quiet") {
        eprintln!(
            "generating {} loyal + {} defectors over {} months (seed {})…",
            cfg.n_loyal, cfg.n_defectors, cfg.n_months, cfg.seed
        );
    }
    let dataset = generate_dataset(&cfg);
    let dir = Path::new(out);
    std::fs::create_dir_all(dir)?;
    match args.get("format").unwrap_or("csv") {
        "csv" => std::fs::write(
            dir.join("receipts.csv"),
            csv_io::receipts_to_csv(&dataset.store),
        )?,
        "bin" => std::fs::write(
            dir.join("receipts.bin"),
            attrition_store::store_to_bytes(&dataset.store),
        )?,
        other => return Err(format!("unknown format {other:?} (csv|bin)").into()),
    }
    std::fs::write(
        dir.join("taxonomy.csv"),
        csv_io::taxonomy_to_csv(&dataset.taxonomy),
    )?;
    std::fs::write(
        dir.join("labels.csv"),
        labels_csv::labels_to_csv(&dataset.labels),
    )?;
    println!(
        "wrote {} receipts, {} products, {} labels to {}",
        dataset.store.num_receipts(),
        dataset.taxonomy.num_products(),
        dataset.labels.len(),
        dir.display()
    );
    Ok(())
}

/// `attrition stats`
pub fn stats(args: &Args) -> CliResult {
    let store = load_store(args.require("receipts")?)?;
    let taxonomy = match args.get("taxonomy") {
        Some(path) => Some(load_taxonomy(path)?),
        None => None,
    };
    println!("{}", DatasetStats::compute(&store, taxonomy.as_ref()));
    Ok(())
}

/// `attrition evaluate`
pub fn evaluate(args: &Args) -> CliResult {
    let store = load_store(args.require("receipts")?)?;
    let taxonomy = load_taxonomy(args.require("taxonomy")?)?;
    let labels_text = std::fs::read_to_string(args.require("labels")?)?;
    let labels = labels_csv::labels_from_csv(&labels_text)?;
    let alpha: f64 = args.get_parsed("alpha", 2.0)?;
    let w_months: u32 = args.get_parsed("window", 2)?;
    let folds: usize = args.get_parsed("folds", 5)?;
    let params = StabilityParams::new(alpha)?;

    let seg_store = project_to_segments(&store, &taxonomy)?;
    let spec = derive_spec(&seg_store, w_months)?;
    let db = WindowedDatabase::covering_store(&seg_store, spec, WindowAlignment::Global);
    let matrix = StabilityEngine::new(params).compute(&db);
    let rfm = RfmModel::new(1);

    let mut table = Table::new(["window", "end month", "stability AUROC", "RFM AUROC"]);
    for k in 0..db.num_windows {
        let pairs = matrix.attrition_scores_at(WindowIndex::new(k));
        let customers: Vec<CustomerId> = pairs.iter().map(|(c, _)| *c).collect();
        let stab_scores: Vec<f64> = pairs.iter().map(|(_, s)| *s).collect();
        let lab: Vec<bool> = customers
            .iter()
            .map(|c| {
                labels
                    .cohort_of(*c)
                    .map(|co| co.is_defector())
                    .unwrap_or(false)
            })
            .collect();
        let stab_auc = auroc(&lab, &stab_scores);

        let rows = rfm.features_at(&db, WindowIndex::new(k));
        let features: Vec<attrition_rfm::RfmFeatures> = rows.iter().map(|(_, f)| *f).collect();
        let rfm_auc = if lab.iter().filter(|&&l| l).count() >= folds
            && lab.iter().filter(|&&l| !l).count() >= folds
        {
            let scores = out_of_fold_scores(&features, &lab, 1, folds, 42);
            auroc(&lab, &scores)
        } else {
            f64::NAN
        };
        table.row([
            k.to_string(),
            ((k + 1) * w_months).to_string(),
            fmt_f64(stab_auc, 3),
            fmt_f64(rfm_auc, 3),
        ]);
    }
    println!(
        "evaluation at segment granularity: {} customers, α = {alpha}, {w_months}-month windows\n",
        db.num_customers()
    );
    println!("{table}");
    Ok(())
}

/// `attrition explain`
pub fn explain(args: &Args) -> CliResult {
    let store = load_store(args.require("receipts")?)?;
    let taxonomy = load_taxonomy(args.require("taxonomy")?)?;
    let customer = CustomerId::new(args.get_parsed("customer", u64::MAX)?);
    if customer.raw() == u64::MAX {
        return Err("missing required flag --customer".into());
    }
    let alpha: f64 = args.get_parsed("alpha", 2.0)?;
    let w_months: u32 = args.get_parsed("window", 2)?;
    let top: usize = args.get_parsed("top", 5)?;
    let params = StabilityParams::new(alpha)?;

    let seg_store = project_to_segments(&store, &taxonomy)?;
    let spec = derive_spec(&seg_store, w_months)?;
    let db = WindowedDatabase::covering_store(&seg_store, spec, WindowAlignment::Global);
    let windows = db.customer(customer)?;
    let analysis = analyze_customer(windows, params, top);

    println!(
        "stability trajectory of customer {customer} (α = {alpha}, {w_months}-month windows):\n"
    );
    let mut table = Table::new(["window", "stability", "lost products (share)"]);
    for (point, expl) in analysis.points.iter().zip(&analysis.explanations) {
        let lost: Vec<String> = expl
            .lost
            .iter()
            .filter(|l| l.share >= 0.02)
            .map(|l| {
                let name = taxonomy
                    .segment(SegmentId::new(l.item.raw()))
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|_| l.item.to_string());
                format!("{name} ({:.0}%)", l.share * 100.0)
            })
            .collect();
        table.row([
            point.window.raw().to_string(),
            fmt_f64(point.value, 3),
            lost.join(", "),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// `attrition rank`
pub fn rank(args: &Args) -> CliResult {
    let store = load_store(args.require("receipts")?)?;
    let taxonomy = load_taxonomy(args.require("taxonomy")?)?;
    let alpha: f64 = args.get_parsed("alpha", 2.0)?;
    let w_months: u32 = args.get_parsed("window", 2)?;
    let top: usize = args.get_parsed("top", 20)?;
    let params = StabilityParams::new(alpha)?;

    let seg_store = project_to_segments(&store, &taxonomy)?;
    let spec = derive_spec(&seg_store, w_months)?;
    let db = WindowedDatabase::covering_store(&seg_store, spec, WindowAlignment::Global);
    if db.num_windows == 0 {
        return Err("no complete windows in the data".into());
    }
    let k = args.get_parsed("window-index", db.num_windows - 1)?;
    if k >= db.num_windows {
        return Err(format!("window {k} out of range (have {})", db.num_windows).into());
    }
    let matrix = StabilityEngine::new(params).compute(&db);

    println!(
        "top {top} at-risk customers at window {k} (of {}):\n",
        db.num_windows
    );
    let mut table = Table::new(["customer", "stability", "top lost products"]);
    for (customer, score) in matrix.rank_at(WindowIndex::new(k), top) {
        let lost: Vec<String> = matrix
            .explanation(customer, WindowIndex::new(k))
            .map(|e| {
                e.lost
                    .iter()
                    .take(3)
                    .map(|l| {
                        taxonomy
                            .segment(SegmentId::new(l.item.raw()))
                            .map(|s| s.name.clone())
                            .unwrap_or_else(|_| l.item.to_string())
                    })
                    .collect()
            })
            .unwrap_or_default();
        table.row([
            customer.to_string(),
            fmt_f64(1.0 - score, 3),
            lost.join(", "),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// `attrition export`
pub fn export(args: &Args) -> CliResult {
    let store = load_store(args.require("receipts")?)?;
    let taxonomy = load_taxonomy(args.require("taxonomy")?)?;
    let out = args.require("out")?;
    let alpha: f64 = args.get_parsed("alpha", 2.0)?;
    let w_months: u32 = args.get_parsed("window", 2)?;
    let min_share: f64 = args.get_parsed("min-share", 0.02)?;
    let params = StabilityParams::new(alpha)?;

    let seg_store = project_to_segments(&store, &taxonomy)?;
    let spec = derive_spec(&seg_store, w_months)?;
    let db = WindowedDatabase::covering_store(&seg_store, spec, WindowAlignment::Global);
    let matrix = StabilityEngine::new(params).compute(&db);

    let dir = Path::new(out);
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("stability_scores.csv"),
        attrition_core::matrix_to_csv(&matrix),
    )?;
    std::fs::write(
        dir.join("explanations.csv"),
        attrition_core::explanations_to_csv(&matrix, min_share),
    )?;
    println!(
        "exported {} customers × {} windows to {}",
        matrix.num_customers(),
        db.num_windows,
        dir.display()
    );
    Ok(())
}

/// `attrition monitor`
pub fn monitor(args: &Args) -> CliResult {
    let store = load_store(args.require("receipts")?)?;
    let taxonomy = load_taxonomy(args.require("taxonomy")?)?;
    let beta: f64 = args.get_parsed("beta", 0.6)?;
    let alpha: f64 = args.get_parsed("alpha", 2.0)?;
    let w_months: u32 = args.get_parsed("window", 2)?;
    let warmup: u32 = args.get_parsed("warmup", 3)?;
    let params = StabilityParams::new(alpha)?;
    if !(0.0..=1.0).contains(&beta) {
        return Err("--beta must be within [0, 1]".into());
    }

    let seg_store = project_to_segments(&store, &taxonomy)?;
    let spec = derive_spec(&seg_store, w_months)?;
    let mut mon = StabilityMonitor::new(spec, params).with_max_explanations(3);
    let mut alerts = 0usize;
    let stream: Vec<(CustomerId, attrition_types::Date, Basket)> =
        attrition_store::chronological(&seg_store)
            .map(|r| (r.customer, r.date, Basket::new(r.items.to_vec())))
            .collect();
    for (customer, date, basket) in stream {
        for closed in mon.ingest(customer, date, &basket) {
            if closed.point.window.raw() >= warmup && closed.point.value <= beta {
                alerts += 1;
                let lost: Vec<String> = closed
                    .explanation
                    .lost
                    .iter()
                    .map(|l| {
                        taxonomy
                            .segment(SegmentId::new(l.item.raw()))
                            .map(|s| s.name.clone())
                            .unwrap_or_else(|_| l.item.to_string())
                    })
                    .collect();
                println!(
                    "ALERT customer {} window {} stability {:.3} lost: {}",
                    closed.customer,
                    closed.point.window.raw(),
                    closed.point.value,
                    lost.join(", ")
                );
            }
        }
    }
    println!("\n{alerts} alerts (stability ≤ {beta}, warm-up {warmup} windows)");
    Ok(())
}

/// `attrition dump FILE`: the text rendering of a checkpoint's or a
/// snapshot's monitor state.
pub fn dump(args: &Args) -> CliResult {
    let [path] = args.positional() else {
        return Err("usage: attrition dump FILE (one checkpoint or snapshot file)".into());
    };
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let body = if bytes.starts_with(b"ATTRCKP") {
        let ckpt = attrition_serve::checkpoint::read(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: checkpoint lsn {}", ckpt.lsn);
        ckpt.body
    } else {
        bytes
    };
    let monitor =
        StabilityMonitor::restore_bytes(&body).map_err(|e| format!("cannot dump {path}: {e}"))?;
    print!("{}", monitor.snapshot());
    Ok(())
}

/// `attrition serve`
pub fn serve(args: &Args) -> CliResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7711").to_owned();
    let shards: usize = args.get_parsed("shards", 8)?;
    let workers: usize = args.get_parsed("workers", 4)?;
    let queue: usize = args.get_parsed("queue", 64)?;
    let read_timeout_ms: u64 = args.get_parsed("read-timeout-ms", 5000)?;
    if shards == 0 || workers == 0 {
        return Err("--shards and --workers must be at least 1".into());
    }

    // Durable mode: `--wal-dir` recovers the newest valid checkpoint +
    // WAL from the directory and keeps logging there; `--restore` is the
    // legacy one-shot snapshot load and conflicts with it.
    let wal_dir = args.get("wal-dir").map(std::path::PathBuf::from);
    if wal_dir.is_some() && args.get("restore").is_some() {
        return Err(
            "--restore conflicts with --wal-dir (recovery already loads the newest \
             checkpoint in the wal directory)"
                .into(),
        );
    }
    if let Some(dir) = wal_dir {
        return serve_durable(args, dir, addr, shards, workers, queue, read_timeout_ms);
    }

    // The window grid comes either from flags or — under `--restore` —
    // from the snapshot's own header; mixing the two is rejected.
    let (spec, params, monitor) = match args.get("restore") {
        Some(path) => {
            for flag in ["origin", "window", "alpha", "max-explanations"] {
                if args.get(flag).is_some() {
                    return Err(format!(
                        "--{flag} conflicts with --restore (the snapshot header fixes it)"
                    )
                    .into());
                }
            }
            let bytes =
                std::fs::read(path).map_err(|e| format!("cannot read snapshot {path}: {e}"))?;
            let merged = StabilityMonitor::restore_bytes(&bytes)
                .map_err(|e| format!("cannot restore snapshot {path}: {e}"))?;
            eprintln!("restored {} customers from {path}", merged.num_customers());
            let (spec, params) = (merged.spec(), merged.params());
            (spec, params, ShardedMonitor::from_monitor(merged, shards))
        }
        None => {
            let origin = attrition_types::Date::parse_iso(args.require("origin")?)
                .map_err(|e| format!("bad --origin: {e}"))?;
            let w_months: u32 = args.get_parsed("window", 2)?;
            let alpha: f64 = args.get_parsed("alpha", 2.0)?;
            let max_explanations: usize = args.get_parsed("max-explanations", 5)?;
            let params = StabilityParams::new(alpha)?;
            let spec = WindowSpec::months(origin, w_months);
            (
                spec,
                params,
                ShardedMonitor::new(shards, spec, params, max_explanations),
            )
        }
    };

    let mut config = ServerConfig::new(addr, spec, params);
    config.n_shards = shards;
    config.workers = workers;
    config.queue_capacity = queue;
    config.read_timeout = std::time::Duration::from_millis(read_timeout_ms);
    config.snapshot_path = args.get("snapshot").map(std::path::PathBuf::from);

    attrition_serve::install_sigint_handler();
    let handle = attrition_serve::start_with(config, monitor)?;
    println!("listening on {}", handle.local_addr());
    let summary = handle.join();
    println!(
        "served {} requests ({} errors) over {} connections ({} rejected busy); \
         {} customers tracked",
        summary.requests,
        summary.errors,
        summary.connections,
        summary.rejected_busy,
        summary.customers
    );
    if let Some(path) = &summary.snapshot_path {
        println!("snapshot written to {}", path.display());
    }
    Ok(())
}

/// `attrition serve --wal-dir …`: recover, then serve with WAL +
/// periodic checkpoints. Split out of [`serve`] because the grid comes
/// from recovery (checkpoint header wins over flags) and the exit code
/// must reflect shutdown durability.
#[allow(clippy::too_many_arguments)]
fn serve_durable(
    args: &Args,
    wal_dir: std::path::PathBuf,
    addr: String,
    shards: usize,
    workers: usize,
    queue: usize,
    read_timeout_ms: u64,
) -> CliResult {
    let sync_policy = SyncPolicy::parse(args.get("sync-policy").unwrap_or("always"))
        .map_err(|e| format!("bad --sync-policy: {e}"))?;
    let checkpoint_every: u64 = args.get_parsed("checkpoint-every", 1024)?;
    let checkpoint_secs: u64 = args.get_parsed("checkpoint-secs", 30)?;
    let keep_checkpoints: usize = args.get_parsed("keep-checkpoints", 2)?;
    if keep_checkpoints == 0 {
        return Err("--keep-checkpoints must be at least 1".into());
    }
    // First boot needs a grid from flags; on restart the recovered
    // checkpoint's header wins and the flags are ignored.
    let fallback = match args.get("origin") {
        Some(raw) => {
            let origin =
                attrition_types::Date::parse_iso(raw).map_err(|e| format!("bad --origin: {e}"))?;
            let w_months: u32 = args.get_parsed("window", 2)?;
            let alpha: f64 = args.get_parsed("alpha", 2.0)?;
            let max_explanations: usize = args.get_parsed("max-explanations", 5)?;
            Some(Fallback {
                spec: WindowSpec::months(origin, w_months),
                params: StabilityParams::new(alpha)?,
                max_explanations,
            })
        }
        None => None,
    };
    let (recovered, stats) = attrition_serve::recover(&wal_dir, fallback.as_ref())
        .map_err(|e| format!("cannot recover from {}: {e}", wal_dir.display()))?;
    eprintln!("recovery: {stats}");

    let (spec, params) = (recovered.spec(), recovered.params());
    let mut config = ServerConfig::new(addr, spec, params);
    config.n_shards = shards;
    config.workers = workers;
    config.queue_capacity = queue;
    config.read_timeout = std::time::Duration::from_millis(read_timeout_ms);
    config.snapshot_path = args.get("snapshot").map(std::path::PathBuf::from);
    config.durability = Some(DurabilityConfig {
        sync_policy,
        checkpoint_every_requests: checkpoint_every,
        checkpoint_every: (checkpoint_secs > 0)
            .then(|| std::time::Duration::from_secs(checkpoint_secs)),
        keep_checkpoints,
        ..DurabilityConfig::new(wal_dir.clone())
    });

    attrition_serve::install_sigint_handler();
    // A durable server is also a replication primary: wrap the engine
    // so `REPL` fetches are answered from its own WAL directory. The WAL
    // resumes where recovery found the log's end, without reading the
    // log again.
    let engine = Arc::new(attrition_serve::Engine::open_in(
        ShardedMonitor::from_monitor(recovered, shards),
        config.snapshot_path.clone(),
        config.durability.as_ref(),
        stats.log_end(),
        attrition_serve::RealStorage::shared(),
        Arc::new(attrition_serve::RealClock),
    )?);
    let primary = Arc::new(PrimaryService::open(engine, &wal_dir)?);
    let handle = attrition_serve::start_service(config, primary)?;
    println!("listening on {}", handle.local_addr());
    let summary = handle.join();
    println!(
        "served {} requests ({} errors) over {} connections ({} rejected busy); \
         {} customers tracked; {} wal appends, {} fsyncs, {} checkpoints",
        summary.requests,
        summary.errors,
        summary.connections,
        summary.rejected_busy,
        summary.customers,
        summary.wal_appends,
        summary.wal_fsyncs,
        summary.checkpoints,
    );
    if let Some(path) = &summary.snapshot_path {
        println!("snapshot written to {}", path.display());
    }
    // A failed shutdown checkpoint/snapshot is a crash-equivalent exit:
    // the WAL still holds the tail, so recovery is safe — but the
    // operator must see a nonzero status, not a silent success.
    if let Some(e) = &summary.checkpoint_error {
        return Err(format!(
            "shutdown checkpoint failed (wal retained, recovery will replay): {e}"
        )
        .into());
    }
    if let Some(e) = &summary.snapshot_error {
        return Err(format!("shutdown snapshot failed: {e}").into());
    }
    Ok(())
}

/// `attrition replicate`: a read-only follower of a `serve --wal-dir`
/// primary. Pulls `REPL` batches over TCP, applies them through its own
/// durable engine, answers `SCORE`/`STATS` locally, and takes over as
/// the primary on `PROMOTE` (see DESIGN §13).
pub fn replicate(args: &Args) -> CliResult {
    let primary_addr = args.require("primary")?.to_owned();
    let addr = args.get("addr").unwrap_or("127.0.0.1:7712").to_owned();
    let wal_dir = std::path::PathBuf::from(args.require("wal-dir")?);
    let shards: usize = args.get_parsed("shards", 8)?;
    let workers: usize = args.get_parsed("workers", 4)?;
    let queue: usize = args.get_parsed("queue", 64)?;
    let read_timeout_ms: u64 = args.get_parsed("read-timeout-ms", 5000)?;
    if shards == 0 || workers == 0 {
        return Err("--shards and --workers must be at least 1".into());
    }
    let fetch_interval_ms: u64 = args.get_parsed("fetch-interval-ms", 100)?;
    let batch_max: u64 = args.get_parsed("batch-max", 1024)?;
    if batch_max == 0 {
        return Err("--batch-max must be at least 1".into());
    }
    let sync_policy = SyncPolicy::parse(args.get("sync-policy").unwrap_or("always"))
        .map_err(|e| format!("bad --sync-policy: {e}"))?;
    let checkpoint_every: u64 = args.get_parsed("checkpoint-every", 1024)?;
    let checkpoint_secs: u64 = args.get_parsed("checkpoint-secs", 30)?;
    let keep_checkpoints: usize = args.get_parsed("keep-checkpoints", 2)?;
    if keep_checkpoints == 0 {
        return Err("--keep-checkpoints must be at least 1".into());
    }
    // The grid only seeds a replica with no local state yet; a recovered
    // checkpoint (or the first shipped bootstrap snapshot) wins.
    let origin = attrition_types::Date::parse_iso(args.require("origin")?)
        .map_err(|e| format!("bad --origin: {e}"))?;
    let w_months: u32 = args.get_parsed("window", 2)?;
    let alpha: f64 = args.get_parsed("alpha", 2.0)?;
    let max_explanations: usize = args.get_parsed("max-explanations", 5)?;
    let fallback = Fallback {
        spec: WindowSpec::months(origin, w_months),
        params: StabilityParams::new(alpha)?,
        max_explanations,
    };

    let rcfg = ReplicaConfig {
        durability: DurabilityConfig {
            sync_policy,
            checkpoint_every_requests: checkpoint_every,
            checkpoint_every: (checkpoint_secs > 0)
                .then(|| std::time::Duration::from_secs(checkpoint_secs)),
            keep_checkpoints,
            ..DurabilityConfig::new(wal_dir.clone())
        },
        wal_dir,
        n_shards: shards,
        fallback,
        accept_stale_epoch: false,
        keep_divergent_suffix: false,
    };
    let (replica, stats) =
        ReplicaEngine::open(rcfg).map_err(|e| format!("cannot recover replica state: {e}"))?;
    eprintln!("recovery: {stats}");
    let replica = Arc::new(replica);

    // `--rejoin`: a deposed primary healing back in runs the divergence
    // handshake eagerly, before serving reads — otherwise clients could
    // briefly read the divergent suffix the new timeline disowned. The
    // fetch loop would also catch it on the first fenced fetch; this
    // just moves the discard ahead of the listener.
    if args.get_bool("rejoin") {
        let policy = attrition_serve::RetryPolicy {
            budget: 10,
            ..attrition_serve::RetryPolicy::default()
        };
        let mut jitter = attrition_serve::SplitMix64::new(policy.seed);
        let mut client = ReplClient::new(
            primary_addr.clone(),
            std::time::Duration::from_millis(read_timeout_ms),
        );
        let mut attempt: u32 = 0;
        let outcome = loop {
            match rejoin_via(&mut client, &replica) {
                Ok(outcome) => break outcome,
                Err(e) if attempt + 1 < policy.budget => {
                    attempt += 1;
                    eprintln!(
                        "rejoin: handshake with {primary_addr} failed (attempt {attempt}): {e}"
                    );
                    std::thread::sleep(policy.backoff(attempt, &mut jitter));
                }
                Err(e) => {
                    return Err(format!(
                        "rejoin handshake with {primary_addr} failed after {} attempts: {e}",
                        attempt + 1
                    )
                    .into());
                }
            }
        };
        if outcome.adopted {
            eprintln!(
                "rejoin: adopted epoch {} ({} divergent records discarded)",
                outcome.epoch, outcome.divergent_records
            );
        } else {
            eprintln!("rejoin: already current at epoch {}", outcome.epoch);
        }
    }

    let mut config = ServerConfig::new(addr, fallback.spec, fallback.params);
    config.n_shards = shards;
    config.workers = workers;
    config.queue_capacity = queue;
    config.read_timeout = std::time::Duration::from_millis(read_timeout_ms);
    config.max_explanations = fallback.max_explanations;

    attrition_serve::install_sigint_handler();
    let handle = attrition_serve::start_service(config, Arc::clone(&replica) as Arc<dyn Service>)?;
    println!("listening on {}", handle.local_addr());

    let fetch_cfg = FetchLoopConfig {
        primary: primary_addr.clone(),
        interval: std::time::Duration::from_millis(fetch_interval_ms),
        batch_max,
        read_timeout: std::time::Duration::from_millis(read_timeout_ms),
        backoff: attrition_serve::RetryPolicy::default(),
    };
    let fetch_replica = Arc::clone(&replica);
    let fetcher = std::thread::Builder::new()
        .name("repl-fetcher".into())
        .spawn(move || attrition_replica::run_fetch_loop(&fetch_replica, &fetch_cfg))
        .map_err(|e| format!("cannot spawn the fetch loop: {e}"))?;

    let summary = handle.join();
    // SIGINT stops the server without tripping the replica's own flag;
    // set it so the fetch loop exits within one interval.
    replica.request_shutdown();
    let rounds = fetcher.join().unwrap_or(0);
    println!(
        "served {} requests ({} errors) over {} connections ({} rejected busy); \
         {} customers tracked; {} wal appends, {} fsyncs, {} checkpoints; \
         {rounds} replication fetch rounds from {primary_addr}",
        summary.requests,
        summary.errors,
        summary.connections,
        summary.rejected_busy,
        summary.customers,
        summary.wal_appends,
        summary.wal_fsyncs,
        summary.checkpoints,
    );
    if replica.promoted() {
        println!(
            "promoted: epoch {}, applied LSN {}",
            replica.epoch(),
            replica.applied_seq()
        );
    }
    if let Some(e) = &summary.checkpoint_error {
        return Err(format!(
            "shutdown checkpoint failed (wal retained, recovery will replay): {e}"
        )
        .into());
    }
    if let Some(e) = &summary.snapshot_error {
        return Err(format!("shutdown snapshot failed: {e}").into());
    }
    Ok(())
}
