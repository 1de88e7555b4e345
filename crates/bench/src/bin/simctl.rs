//! SIMCTL — seed-sweep driver for the deterministic simulation harness.
//!
//! Runs `attrition-sim` worlds for a contiguous range of seeds (the
//! real serve/WAL/checkpoint/recovery stack under simulated time, disk,
//! and faults — see `crates/sim`), aggregates what every world injected
//! and checked, and writes a machine-readable results file consumed by
//! CI (64 seeds on every push, 4096 weekly).
//!
//! Two sweep modes:
//!
//! - `--mode serve` (default): single-node crash/recovery worlds
//!   (`results/sim_sweep.json`).
//! - `--mode repl`: replicated primary+replica worlds with a lossy
//!   network, epoch-fenced failover and the R1/R2 invariants
//!   (`results/repl_sweep.json`).
//! - `--mode rejoin`: the same worlds extended with the deposed-primary
//!   rejoin phase — the old primary reopens as a replica, discards its
//!   divergent suffix via the `REJOIN` handshake, and invariant R3
//!   holds throughout (`results/rejoin_sweep.json`).
//!
//! Any failing seed is printed with the one-command repro line and the
//! process exits non-zero, so the CI log carries everything needed to
//! replay the exact interleaving locally. The results file holds only
//! what the seeds determine, so a sweep regenerates it byte for byte;
//! the wall time is printed, not written.
//!
//! Run: `cargo run -p attrition-bench --release --bin simctl --
//!       [--mode serve|repl|rejoin] [--seeds 64] [--start 0] [--results NAME]`

use attrition_bench::write_result;
use attrition_sim::{
    repro_command, repro_rejoin_command, repro_repl_command, run, run_repl, ReplSimConfig,
    SimConfig,
};
use attrition_util::Table;
use std::time::Instant;

struct Flags {
    mode: String,
    seeds: u64,
    start: u64,
    results: Option<String>,
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        mode: "serve".to_owned(),
        seeds: 64,
        start: 0,
        results: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("flag {name} needs a value"))
        };
        match arg.as_str() {
            "--mode" => flags.mode = value("--mode"),
            "--seeds" => flags.seeds = value("--seeds").parse().expect("--seeds"),
            "--start" => flags.start = value("--start").parse().expect("--start"),
            "--results" => flags.results = Some(value("--results")),
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    flags
}

fn main() {
    let flags = parse_flags();
    match flags.mode.as_str() {
        "serve" => serve_sweep(&flags),
        "repl" => repl_sweep(&flags, false),
        "rejoin" => repl_sweep(&flags, true),
        other => panic!("unknown --mode {other} (serve | repl | rejoin)"),
    }
}

fn serve_sweep(flags: &Flags) {
    let started = Instant::now();

    let mut ops = 0u64;
    let mut acked = 0u64;
    let mut crashes = 0u64;
    let mut clean_restarts = 0u64;
    let mut faults_injected = 0u64;
    let mut score_checks = 0u64;
    let mut invariant_checks = 0u64;
    let mut wal_records = 0u64;
    let mut failures: Vec<(u64, String)> = Vec::new();

    for seed in flags.start..flags.start + flags.seeds {
        let report = run(&SimConfig::for_seed(seed));
        ops += report.ops;
        acked += report.acked;
        crashes += report.crashes;
        clean_restarts += report.clean_restarts;
        faults_injected += report.faults_injected;
        score_checks += report.score_checks;
        invariant_checks += report.invariant_checks;
        wal_records += report.wal_records;
        if let Some(first) = report.violations.first() {
            eprintln!("SIMCTL: seed {seed} FAILED: {first}");
            eprintln!("SIMCTL:   reproduce with: {}", repro_command(seed));
            failures.push((seed, first.clone()));
        }
    }
    let elapsed = started.elapsed();

    let mut table = Table::new(["metric", "value"]);
    table.row(["seeds run".into(), flags.seeds.to_string()]);
    table.row(["first seed".into(), flags.start.to_string()]);
    table.row(["requests executed".into(), ops.to_string()]);
    table.row(["responses acked".into(), acked.to_string()]);
    table.row(["crash-restarts".into(), crashes.to_string()]);
    table.row(["clean restarts".into(), clean_restarts.to_string()]);
    table.row(["faults injected".into(), faults_injected.to_string()]);
    table.row(["wal records".into(), wal_records.to_string()]);
    table.row(["score checks".into(), score_checks.to_string()]);
    table.row(["invariant checks".into(), invariant_checks.to_string()]);
    table.row(["failing seeds".into(), failures.len().to_string()]);
    table.row([
        "wall time (s)".into(),
        format!("{:.2}", elapsed.as_secs_f64()),
    ]);
    println!("\nSIMCTL: deterministic simulation sweep\n\n{table}");

    let failing_seeds = failures
        .iter()
        .map(|(seed, _)| seed.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\"seeds\": {}, \"start\": {}, \"ops\": {ops}, \"acked\": {acked}, \
         \"crashes\": {crashes}, \"clean_restarts\": {clean_restarts}, \
         \"faults_injected\": {faults_injected}, \"wal_records\": {wal_records}, \
         \"score_checks\": {score_checks}, \"invariant_checks\": {invariant_checks}, \
         \"failing_seeds\": [{failing_seeds}]}}\n",
        flags.seeds, flags.start,
    );
    let results = flags.results.as_deref().unwrap_or("sim_sweep");
    write_result(&format!("{results}.json"), &json);

    if let Some((seed, violation)) = failures.first() {
        eprintln!(
            "SIMCTL: {} of {} seeds failed; first: seed {seed}: {violation}",
            failures.len(),
            flags.seeds
        );
        eprintln!("SIMCTL: reproduce with: {}", repro_command(*seed));
        std::process::exit(1);
    }
    println!(
        "SIMCTL: all {} seeds passed both invariants ({} checks, {} faults injected)",
        flags.seeds, invariant_checks, faults_injected
    );
}

fn repl_sweep(flags: &Flags, rejoin: bool) {
    let started = Instant::now();

    let mut ops = 0u64;
    let mut wal_records = 0u64;
    let mut records_replicated = 0u64;
    let mut records_skipped = 0u64;
    let mut snapshots_installed = 0u64;
    let mut fenced = 0u64;
    let mut repl_errors = 0u64;
    let mut primary_crashes = 0u64;
    let mut replica_crashes = 0u64;
    let mut failovers = 0u64;
    let mut partitions = 0u64;
    let mut transport_faults = 0u64;
    let mut score_checks = 0u64;
    let mut invariant_checks = 0u64;
    let mut rejoins = 0u64;
    let mut divergent_discarded = 0u64;
    let mut rejoin_records = 0u64;
    let mut rejoined_crashes = 0u64;
    let mut failures: Vec<(u64, String)> = Vec::new();

    let repro = if rejoin {
        repro_rejoin_command
    } else {
        repro_repl_command
    };
    for seed in flags.start..flags.start + flags.seeds {
        let config = if rejoin {
            ReplSimConfig::for_rejoin_seed(seed)
        } else {
            ReplSimConfig::for_seed(seed)
        };
        let report = run_repl(&config);
        ops += report.ops;
        wal_records += report.wal_records;
        records_replicated += report.records_replicated;
        records_skipped += report.records_skipped;
        snapshots_installed += report.snapshots_installed;
        fenced += report.fenced;
        repl_errors += report.repl_errors;
        primary_crashes += report.primary_crashes;
        replica_crashes += report.replica_crashes;
        failovers += report.failovers;
        partitions += report.partitions;
        transport_faults += report.transport_faults;
        score_checks += report.score_checks;
        invariant_checks += report.invariant_checks;
        rejoins += report.rejoins;
        divergent_discarded += report.divergent_records_discarded;
        rejoin_records += report.rejoin_records_applied;
        rejoined_crashes += report.rejoined_crashes;
        if let Some(first) = report.violations.first() {
            eprintln!("SIMCTL: seed {seed} FAILED: {first}");
            eprintln!("SIMCTL:   reproduce with: {}", repro(seed));
            failures.push((seed, first.clone()));
        }
    }
    let elapsed = started.elapsed();

    let mut table = Table::new(["metric", "value"]);
    table.row(["seeds run".into(), flags.seeds.to_string()]);
    table.row(["first seed".into(), flags.start.to_string()]);
    table.row(["requests executed".into(), ops.to_string()]);
    table.row(["wal records".into(), wal_records.to_string()]);
    table.row(["records replicated".into(), records_replicated.to_string()]);
    table.row(["records skipped".into(), records_skipped.to_string()]);
    table.row([
        "snapshot bootstraps".into(),
        snapshots_installed.to_string(),
    ]);
    table.row(["stale shipments fenced".into(), fenced.to_string()]);
    table.row(["repl errors retried".into(), repl_errors.to_string()]);
    table.row(["primary crashes".into(), primary_crashes.to_string()]);
    table.row(["replica crashes".into(), replica_crashes.to_string()]);
    table.row(["failovers".into(), failovers.to_string()]);
    table.row(["partition windows".into(), partitions.to_string()]);
    table.row(["transport faults".into(), transport_faults.to_string()]);
    table.row(["score checks".into(), score_checks.to_string()]);
    table.row(["invariant checks".into(), invariant_checks.to_string()]);
    if rejoin {
        table.row(["rejoin adoptions".into(), rejoins.to_string()]);
        table.row([
            "divergent records discarded".into(),
            divergent_discarded.to_string(),
        ]);
        table.row(["rejoin records applied".into(), rejoin_records.to_string()]);
        table.row(["rejoined-node crashes".into(), rejoined_crashes.to_string()]);
    }
    table.row(["failing seeds".into(), failures.len().to_string()]);
    table.row([
        "wall time (s)".into(),
        format!("{:.2}", elapsed.as_secs_f64()),
    ]);
    let label = if rejoin { "rejoin" } else { "replication" };
    println!("\nSIMCTL: deterministic {label} sweep\n\n{table}");

    let failing_seeds = failures
        .iter()
        .map(|(seed, _)| seed.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\"seeds\": {}, \"start\": {}, \"ops\": {ops}, \"wal_records\": {wal_records}, \
         \"records_replicated\": {records_replicated}, \"records_skipped\": {records_skipped}, \
         \"snapshots_installed\": {snapshots_installed}, \"fenced\": {fenced}, \
         \"repl_errors\": {repl_errors}, \"primary_crashes\": {primary_crashes}, \
         \"replica_crashes\": {replica_crashes}, \"failovers\": {failovers}, \
         \"partitions\": {partitions}, \"transport_faults\": {transport_faults}, \
         \"score_checks\": {score_checks}, \"invariant_checks\": {invariant_checks}, \
         \"rejoins\": {rejoins}, \"divergent_records_discarded\": {divergent_discarded}, \
         \"rejoin_records_applied\": {rejoin_records}, \
         \"rejoined_crashes\": {rejoined_crashes}, \
         \"failing_seeds\": [{failing_seeds}]}}\n",
        flags.seeds, flags.start,
    );
    let results =
        flags
            .results
            .as_deref()
            .unwrap_or(if rejoin { "rejoin_sweep" } else { "repl_sweep" });
    write_result(&format!("{results}.json"), &json);

    if let Some((seed, violation)) = failures.first() {
        eprintln!(
            "SIMCTL: {} of {} seeds failed; first: seed {seed}: {violation}",
            failures.len(),
            flags.seeds
        );
        eprintln!("SIMCTL: reproduce with: {}", repro(*seed));
        std::process::exit(1);
    }
    let held = if rejoin { "R1, R2 and R3" } else { "R1 and R2" };
    println!(
        "SIMCTL: all {} seeds passed {held} ({} checks, {} transport faults, {} failovers)",
        flags.seeds, invariant_checks, transport_faults, failovers
    );
}
