"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py [--workloads NAME ...] [--seeds 10] [--trace 0|1] [--out FILE]

Runs bench/run.py once per workload and seed (seeds 1..N), one run at a
time, with the run length from BENCHMARK.json, and prints for each metric
the median and the spread (q3 - q1) / median, with the quartiles from
statistics.quantiles(values, n=4).  The run fails if any run reports a
wrong output or a failure share that differs from the workload's first run.
With --out it writes every run's result and the spreads as JSON; the stored
references under bench/reference/ were made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    report = {
        "machine": {"cpus": os.cpu_count(), "processor": platform.processor(),
                    "python": platform.python_version()},
        "run_seconds": config["run_seconds"],
        "workloads": {},
    }
    ok = True
    for name in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(name, seed, result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        table = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            table[metric] = {"median": statistics.median(values), "spread": spread(values)}
            print(f"  {name} {metric}: median {table[metric]['median']:.6g} "
                  f"spread {table[metric]['spread']:.4f}")
        print(f"  {name}: correct {correct}, failed shares {sorted(shares)}")
        report["workloads"][name] = {"metrics": table, "failed_shares": sorted(shares),
                                     "correct": correct, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
