#!/usr/bin/env python3
"""Build the attrition server and the benchmark from source, then run one
benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick

Run it from the repository root. Both programs build into
$CARGO_TARGET_DIR (default `.bench_build`). The last line of standard
output is the result object; the lines before it name every metric with
its unit and sample count. `--quick` runs every workload at a tiny size,
traced and untraced, and checks that each metric named in BENCHMARK.json
is reported with its unit.

The open-loop rates and the stored offline rank checksums live in
perfbench/workloads.json. Results and span files go to `.bench_out/`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wire-b1", "wire-b64", "restart", "offline"]
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir(env):
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(env):
    """Build `attrition` (the server) and `perfbench`; cargo's output goes to stderr."""
    for manifest, package in (("Cargo.toml", "attrition-cli"), (os.path.join("perfbench", "Cargo.toml"), "perfbench")):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, "-p", package]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_bench(env, args, capture):
    """Run perfbench in its own process group, killed whole on timeout."""
    proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE if capture else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return proc.returncode, out


def bench_args(env, config, workload, seed, seconds, trace, quick):
    target = target_dir(env)
    args = [os.path.join(target, "release", "perfbench"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--server-bin", os.path.join(target, "release", "attrition"),
            "--rate", str(config["open_loop_rate"][workload]),
            "--out-dir", os.path.join(ROOT, ".bench_out")]
    checksum = config["offline_rank_checksums"].get(str(seed))
    if workload == "offline" and checksum and not quick:
        args += ["--expect-checksum", checksum]
    if quick:
        args.append("--quick")
    return args


def quick(env, config):
    """Every workload, tiny, traced and untraced: each BENCHMARK.json metric present with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, out = run_bench(env, bench_args(env, config, workload, 1, 1, trace, True), True)
            lines = (out or "").strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{workload} trace {trace}: no result line (exit {code})")
                continue
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append(f"{workload} trace {trace}: {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{workload} trace {trace}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{workload} trace {trace}: unlisted metrics {sorted(extra)}")
            if trace and "engine.stage_coverage" not in got:
                problems.append(f"{workload}: engine.stage_coverage not reported")
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: exit {code}, correct {result['correct']}, failed {result['failed']}")
            print(f"{workload} trace {trace}: {len(got)} metrics, correct {result['correct']}")
    for p in problems:
        print(f"QUICK FAIL {p}")
    print("quick mode: " + ("FAILED" if problems else "all workloads report every metric"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--quick", action="store_true")
    a = parser.parse_args()
    if not a.quick and None in (a.workload, a.seed, a.seconds, a.trace):
        parser.error("--workload, --seed, --seconds and --trace are required (or --quick)")

    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml"), os.path.join("crates", "serve", "src")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["PERFBENCH_GIT_REV"] = git_rev()
    build(env)
    if a.quick:
        sys.exit(quick(env, config))
    code, _ = run_bench(env, bench_args(env, config, a.workload, a.seed, a.seconds, a.trace, False), False)
    sys.exit(code)


if __name__ == "__main__":
    main()
