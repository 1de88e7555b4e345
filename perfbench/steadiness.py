#!/usr/bin/env python3
"""Run every workload on several seeds and record each end-to-end
metric's median and interquartile spread (as a share of the median).

    python3 perfbench/steadiness.py [--seeds 10] [--workloads wire-b1,...] [--out FILE]

The workloads default to those of BENCHMARK.json. Spreads use
`statistics.quantiles(values, n=4)`, as the acceptance check of
BENCHMARK.json does. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated; default: the workloads of BENCHMARK.json")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "steadiness.json"))
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "seeds": list(range(a.first_seed, a.first_seed + a.seeds)),
              "workloads": {}}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in report["seeds"]:
            t = time.time()
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                               cwd=ROOT, capture_output=True, text=True)
            walls.append(round(time.time() - t, 1))
            lines = r.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report["hardware"] = next((l.split(": ", 1)[1] for l in lines if l.startswith("# hardware: ")), None)
            if r.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed}: exit {r.returncode}, correct {result['correct']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "iqr_share": round(spread, 4), "bound": bounds[name],
                          "within_third_of_bound": spread < bounds[name] / 3, "values": vs}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{w:9} {name:24} median {med:14.6g}  spread {spread:7.2%}  bound {bounds[name]:.0%}", flush=True)
        report["workloads"][w] = {"metrics": rows, "run_wall_s": walls}
    os.makedirs(os.path.dirname(a.out), exist_ok=True)
    with open(a.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}; written to {a.out}")


if __name__ == "__main__":
    main()
