"""Benchmark of the rsl-minors toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process as a closed loop with one client: one job
at a time, each started when the last has finished, in whole rounds until S
seconds of jobs have passed.  Every output is checked apart from the toolkit
(bench/checks.py).  The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  bench/README.md lists the
workloads and what each metric means.
"""

import time

STARTED = time.perf_counter()  # the workload's start; set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import rslminors  # noqa: E402

if Path(rslminors.__file__).resolve().parent != ROOT / "src" / "rslminors":
    sys.exit(f"rslminors imported from {rslminors.__file__}, not from {ROOT / 'src'}")

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up runs this many times, here and in fresh child processes, and
# setup_s is the median: one cold start varies by a tenth or more.  The
# children run between rounds, so that the samples spread over the run like
# the jobs do, rather than all falling into one slow spell of the machine.
SETUP_SAMPLES = 9


def _child_setup_s(args) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.begin("setup")
    workload.setup(args.seed)
    setup_s = time.perf_counter() - STARTED
    if tracer:
        tracer.end()
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]
    children_s = 0.0  # time in child set-ups, kept out of the job phase

    # With --trace 1, rounds alternate untraced and traced, so that both
    # halves see the same drift of the machine; the difference of their
    # medians is the tracing overhead.
    times: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    correct = True
    phase_start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        for call, check in workload.round(i):
            if traced:
                tracer.begin(attempted)
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception:
                traceback.print_exc()
                out = None
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end()
            status = "failed"
            if out is None:
                correct = False
            else:
                try:
                    status = check(out)
                except checks.CheckFailed as exc:
                    print(f"{args.workload}: wrong output: {exc}", file=sys.stderr)
                    correct = False
            if traced:
                tracer.status[attempted] = status
            times[traced].append(elapsed)
            attempted += 1
            failed += status != "ok"
        if traced:
            tracer.uninstall()
        i += 1
        if not tracer and len(setups) < SETUP_SAMPLES:
            t0 = time.perf_counter()
            setups.append(_child_setup_s(args))
            children_s += time.perf_counter() - t0
        done = time.perf_counter() - phase_start - children_s >= args.seconds
        if done and (not tracer or i % 2 == 0):
            break
    phase_s = time.perf_counter() - phase_start - children_s
    if not tracer:
        setups += [_child_setup_s(args) for _ in range(SETUP_SAMPLES - len(setups))]

    if tracer:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
        values = tracer.summarize(times[True], times[False])
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in values.items()}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_s_p50": {"value": statistics.median(times[False]), "unit": "s"},
            "jobs_per_s": {"value": attempted / phase_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} jobs: {attempted} attempted, {failed} failed, {i} rounds")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
