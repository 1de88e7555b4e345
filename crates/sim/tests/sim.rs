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

/// Run `bug`'s worlds for seeds 0..32 and return the first that fails,
/// printing its violation and repro command; the same seed must replay
/// the same violation, bit for bit.
fn caught_within_32_seeds(bug: SimBug) -> (u64, Vec<String>) {
    for seed in 0..32 {
        let report = run(&SimConfig::with_bug(seed, bug));
        if !report.passed() {
            println!(
                "seed {seed} caught {bug:?}: {}\n  repro: {}",
                report.violations[0],
                repro_command(seed)
            );
            let again = run(&SimConfig::with_bug(seed, bug));
            assert_eq!(report.violations, again.violations, "seed {seed} replays");
            return (seed, report.violations);
        }
    }
    panic!("{bug:?} survived 32 seeds — the harness cannot catch it");
}

/// The harness must *fail* when the stack is broken: re-introduce the
/// bug the preallocated log can have (the WAL resumes at the file's
/// length instead of the recovered end, so appends land behind a hole
/// and the next recovery loses them) and demand a violation with a
/// reproducible seed within a small sweep.
#[test]
fn known_bad_schedule_fails_with_a_printed_seed() {
    let (_, violations) = caught_within_32_seeds(SimBug::ResumeAtFileLength);
    assert!(
        violations[0].contains("lost"),
        "the violation should be a durability loss: {violations:?}"
    );
}

/// A commit whose fsync does not cover its own group's write — each WAL
/// write lands only after the next fsync — acks records a crash can
/// still lose; the durability floor must catch it with a reproducible
/// seed.
#[test]
fn a_commit_whose_fsync_misses_its_write_is_caught_with_a_printed_seed() {
    let (_, violations) = caught_within_32_seeds(SimBug::WriteAfterFsync);
    assert!(
        violations[0].contains("lost durable records"),
        "the violation should be a durability loss: {violations:?}"
    );
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
