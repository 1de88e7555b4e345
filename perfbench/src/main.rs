//! perfbench — the end-to-end and per-layer benchmark of the attrition
//! server (`attrition serve`, run as a child process) and of the
//! offline pipeline.
//!
//! ```text
//! perfbench --workload <wire-b1|wire-b64|restart|offline> --seed <n>
//!           --seconds <s> --trace <0|1> --server-bin <path> --rate <r>
//!           [--expect-checksum <hex>] [--out-dir <dir>] [--quick]
//! ```
//!
//! `perfbench/run.py` builds both programs and supplies `--server-bin`,
//! `--rate` and `--expect-checksum` from `perfbench/workloads.json`.
//! The last line of standard output is the result object; the lines
//! before it list every metric with its unit and sample count, and the
//! same result, with the hardware, seed and settings, is written to
//! `<out-dir>/result-<workload>-seed<n>-trace<t>.json`.

mod e2e;
mod gen;
mod offline;
mod trace;
mod util;
mod wire;

use std::path::PathBuf;
use util::{json_num, json_str, Report};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WireB1,
    WireB64,
    Restart,
    Offline,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "wire-b1" => Workload::WireB1,
            "wire-b64" => Workload::WireB64,
            "restart" => Workload::Restart,
            "offline" => Workload::Offline,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireB1 => "wire-b1",
            Workload::WireB64 => "wire-b64",
            Workload::Restart => "restart",
            Workload::Offline => "offline",
        }
    }
}

/// One run's settings.
pub struct Cfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Open-loop rate: requests per second on the wire workloads,
    /// explanation queries per second on `offline`.
    pub rate: f64,
    pub expect_checksum: Option<u64>,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
    /// Scratch space of this run, removed at exit.
    pub work: PathBuf,
    pub log: PathBuf,
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <wire-b1|wire-b64|restart|offline> --seed <n> --seconds <s> \
         --trace <0|1> --server-bin <path> --rate <r> [--expect-checksum <hex>] [--out-dir <dir>] [--quick]"
    );
    std::process::exit(2);
}

fn parse_args() -> Cfg {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    let (mut rate, mut expect_checksum, mut server_bin, mut out_dir) =
        (None, None, None, PathBuf::from(".bench_out"));
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => trace = Some(matches!(value.as_str(), "1")),
            "--rate" => {
                rate = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|r| *r > 0.0)
                        .unwrap_or_else(|| usage("bad --rate")),
                )
            }
            "--expect-checksum" => {
                expect_checksum = Some(
                    u64::from_str_radix(&value, 16)
                        .unwrap_or_else(|_| usage("bad --expect-checksum")),
                )
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing --workload"));
    let seed = seed.unwrap_or_else(|| usage("missing --seed"));
    let work = out_dir.join(format!(
        "work-{}-seed{seed}-{}",
        workload.name(),
        std::process::id()
    ));
    Cfg {
        workload,
        seed,
        seconds: seconds.unwrap_or_else(|| usage("missing --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing --trace")),
        quick,
        rate: rate.unwrap_or_else(|| usage("missing --rate")),
        expect_checksum,
        server_bin: server_bin.unwrap_or_else(|| usage("missing --server-bin")),
        log: work.join("server.log"),
        out_dir,
        work,
    }
}

fn hardware() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split(':').nth(1))
        })
        .map(str::trim)
        .unwrap_or("unknown cpu");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mem = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .map(str::to_owned)
        })
        .unwrap_or_default();
    format!("{model}; available_parallelism {threads}; MemTotal {mem} kB")
}

fn main() {
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("offline-child") {
        let dir = raw
            .next()
            .unwrap_or_else(|| usage("offline-child needs a directory"));
        offline::child(std::path::Path::new(&dir));
        return;
    }
    let cfg = parse_args();
    std::fs::create_dir_all(&cfg.work).expect("create the run's scratch directory");
    let scratch = Scratch(cfg.work.clone());

    let mut rep = Report::default();
    rep.note("workload", cfg.workload.name());
    rep.note("seed", cfg.seed);
    rep.note("seconds", cfg.seconds);
    rep.note("trace", cfg.trace);
    rep.note("quick", cfg.quick);
    rep.note("hardware", hardware());
    rep.note(
        "git_rev",
        std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
    );
    rep.note("sync_policy", wire::SYNC_POLICY);
    rep.note("shards", wire::SHARDS);
    rep.note("server_workers", wire::WORKERS);
    rep.note("open_loop_rate", cfg.rate);
    if cfg.trace {
        trace::run(&cfg, &mut rep);
    } else {
        match cfg.workload {
            Workload::WireB1 => e2e::run_wire(&cfg, 1, &mut rep),
            Workload::WireB64 => e2e::run_wire(&cfg, 64, &mut rep),
            Workload::Restart => e2e::run_restart(&cfg, &mut rep),
            Workload::Offline => e2e::run_offline(&cfg, &mut rep),
        }
    }
    drop(scratch);

    let correct = rep.mismatches.is_empty() && rep.failed == 0;
    rep.note(
        "error_ratio",
        if rep.attempted > 0 {
            rep.failed as f64 / rep.attempted as f64
        } else {
            f64::NAN
        },
    );
    for (k, v) in &rep.notes {
        println!("# {k}: {v}");
    }
    for m in &rep.metrics {
        match m.samples {
            Some(n) => println!("{} = {} {} ({n} samples)", m.name, m.value, m.unit),
            None => println!("{} = {} {}", m.name, m.value, m.unit),
        }
    }
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
    let notes: Vec<String> = rep
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let samples: Vec<String> = rep
        .metrics
        .iter()
        .filter_map(|m| m.samples.map(|n| format!("{}: {n}", json_str(m.name))))
        .collect();
    let file = cfg.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let full =
        format!(
        "{{\"result\": {result}, \"samples\": {{{}}}, \"run\": {{{}}}, \"mismatches\": [{}]}}\n",
        samples.join(", "),
        notes.join(", "),
        rep.mismatches.iter().map(|m| json_str(m)).collect::<Vec<_>>().join(", ")
    );
    if let Err(e) = std::fs::write(&file, full) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
