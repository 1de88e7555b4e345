//! The simulation sweep: many seeded worlds, full fault schedules, and
//! a self-test that proves the harness catches a re-introduced bug.
//!
//! Reproduce any failing seed the sweep (or CI) prints with:
//!
//! ```text
//! ATTRITION_SIM_SEED=<seed> cargo test -p attrition-sim --test sim repro_seed -- --nocapture
//! ```

use attrition_sim::{repro_command, run, SimBug, SimConfig};

/// Seeded worlds (64 by default, `ATTRITION_SIM_SEEDS=N` resizes the
/// local sweep) with every fault class enabled; both invariants must
/// hold after every recovery in every world. This is the tier the CI
/// `sim-sweep` job runs on every push (and 4096 seeds weekly, via
/// `simctl`).
#[test]
fn sweep_64_seeds_under_full_fault_schedules() {
    let seeds: u64 = std::env::var("ATTRITION_SIM_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let mut crashes = 0u64;
    let mut faults = 0u64;
    let mut score_checks = 0u64;
    for seed in 0..seeds {
        let report = run(&SimConfig::for_seed(seed));
        report.assert_ok();
        crashes += report.crashes;
        faults += report.faults_injected;
        score_checks += report.score_checks;
    }
    // The sweep must actually exercise the machinery, not vacuously pass.
    assert!(crashes >= seeds, "every run ends in a mandatory crash");
    assert!(faults > seeds * 8, "fault schedules barely fired: {faults}");
    assert!(
        score_checks > seeds * 16,
        "too few score checks: {score_checks}"
    );
}

/// The harness must *fail* when the stack is broken: re-introduce the
/// bug the preallocated log can have (the WAL resumes at the file's
/// length instead of the recovered end, so appends land behind a hole
/// and the next recovery loses them) and demand a violation with a
/// reproducible seed within a small sweep.
#[test]
fn known_bad_schedule_fails_with_a_printed_seed() {
    let mut caught = None;
    for seed in 0..32 {
        let report = run(&SimConfig::with_bug(seed, SimBug::ResumeAtFileLength));
        if !report.passed() {
            println!(
                "seed {seed} caught the bug: {}\n  repro: {}",
                report.violations[0],
                repro_command(seed)
            );
            caught = Some((seed, report));
            break;
        }
    }
    let (seed, report) = caught.expect(
        "ResumeAtFileLength survived 32 seeds — the harness cannot catch a misplaced log end",
    );
    assert!(
        report.violations[0].contains("lost"),
        "the violation should be a durability loss: {:?}",
        report.violations
    );
    // The seed is a faithful repro: the same world replays the same
    // violation, bit for bit.
    let again = run(&SimConfig::with_bug(seed, SimBug::ResumeAtFileLength));
    assert_eq!(report.violations, again.violations);
}

/// The replay hook the repro command targets: runs the standard sweep
/// configuration for `ATTRITION_SIM_SEED`, printing the full report.
/// Without the variable set it is a no-op (so plain `cargo test`
/// passes).
#[test]
fn repro_seed() {
    let Ok(seed) = std::env::var("ATTRITION_SIM_SEED") else {
        return;
    };
    let seed: u64 = seed
        .parse()
        .expect("ATTRITION_SIM_SEED must be an unsigned 64-bit integer");
    let report = run(&SimConfig::for_seed(seed));
    println!("{report:#?}");
    report.assert_ok();
}
