//! `attrition` — command-line interface to the workspace.
//!
//! ```text
//! attrition generate --out DIR [--preset paper|small] [--seed N]
//!                    [--loyal N] [--defectors N]
//! attrition stats    --receipts FILE [--taxonomy FILE]
//! attrition evaluate --receipts FILE --taxonomy FILE --labels FILE
//!                    [--alpha 2] [--window 2] [--folds 5]
//! attrition explain  --receipts FILE --taxonomy FILE --customer ID
//!                    [--alpha 2] [--window 2] [--top 5]
//! attrition rank     --receipts FILE --taxonomy FILE
//!                    [--window-index K] [--top 20] [--alpha 2] [--window 2]
//! attrition export   --receipts FILE --taxonomy FILE --out DIR
//!                    [--alpha 2] [--window 2] [--min-share 0.02]
//! attrition monitor  --receipts FILE --taxonomy FILE [--beta 0.6]
//!                    [--alpha 2] [--window 2] [--warmup 3]
//! attrition serve    --origin DATE [--addr HOST:PORT] [--window 2] [--alpha 2]
//!                    [--shards 8] [--workers 4] [--queue 64]
//!                    [--snapshot PATH | --restore PATH]
//! attrition replicate --primary HOST:PORT --wal-dir DIR --origin DATE
//!                    [--addr HOST:PORT] [--fetch-interval-ms 100] [--rejoin]
//! attrition dump     FILE
//! attrition scenarios [--scenario NAME] [--seed N] [--quick] [--out DIR]
//!                    [--window 2] [--folds 5] [--fpr-budget 0.10]
//! ```
//!
//! Receipt files are CSV (`attrition-store::csv_io`) or the binary
//! columnar format (`attrition-store::binary_io`), auto-detected on
//! load; labels use the `labels_csv` schema.

mod args;
mod commands;
mod labels_csv;
mod metrics;
mod scenarios;

use args::Args;
use metrics::MetricsMode;
use std::process::ExitCode;

const USAGE: &str = "\
attrition — customer stability modeling for grocery retail (EDBT 2016 reproduction)

USAGE:
    attrition <COMMAND> [FLAGS]

COMMANDS:
    generate   synthesize a dataset (receipts.csv, taxonomy.csv, labels.csv)
    stats      dataset description statistics
    evaluate   per-window AUROC of the stability model and the RFM baseline
    explain    one customer's stability trajectory with lost-product explanations
    rank       the most at-risk customers at a window, with lost products
    export     write stability scores and explanations as CSV files
    monitor    replay receipts through the streaming monitor, printing alerts
    serve      run the online scoring server (TCP line protocol)
    replicate  follow a durable server as a read-only, promotable replica
    dump       print a checkpoint or snapshot file's state as text
    scenarios  evaluate both models on the scenario library with exact ground truth
    help       show this message

GLOBAL FLAGS:
    --metrics[=text|json]   print pipeline metrics (stage timings, counters)
                            after the command; `json` emits one machine-readable
                            line as the final stdout output

Run `attrition <COMMAND> --help` for the command's flags.";

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = raw.collect();
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", commands::help_for(&command));
        return ExitCode::SUCCESS;
    }
    let parsed = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `dump FILE` is the one command that takes a positional argument.
    if let Some(stray) = parsed.positional().first().filter(|_| command != "dump") {
        eprintln!("error: unexpected positional argument {stray:?} (all inputs are flags)");
        return ExitCode::FAILURE;
    }
    let metrics_mode = match MetricsMode::from_flag(parsed.get("metrics")) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if metrics_mode.is_on() {
        attrition_obs::set_enabled(true);
    }
    let result = match command.as_str() {
        "generate" => commands::generate(&parsed),
        "stats" => commands::stats(&parsed),
        "evaluate" => commands::evaluate(&parsed),
        "explain" => commands::explain(&parsed),
        "rank" => commands::rank(&parsed),
        "export" => commands::export(&parsed),
        "monitor" => commands::monitor(&parsed),
        "serve" => commands::serve(&parsed),
        "replicate" => commands::replicate(&parsed),
        "dump" => commands::dump(&parsed),
        "scenarios" => scenarios::scenarios(&parsed),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => {
            if metrics_mode.is_on() {
                let report = attrition_obs::global().snapshot();
                println!("{}", metrics::render(&report, metrics_mode));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
