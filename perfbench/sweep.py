"""Run workloads over several seeds and report medians and spreads.

Usage, from the root of the repository::

    python3 perfbench/sweep.py --workloads threaded-barrierless \\
        threaded-barrier --seeds 10 --seconds 30 [--trace 0] [--out FILE]

For each workload and metric it prints the median over the seeds, the
quartiles and the spread (inter-quartile distance over the median),
next to the metric's bound from ``BENCHMARK.json``.  When both threaded
workloads ran, it also prints the barrier-less/barrier ratio of each
app's median job time: the paper's headline comparison.  That ratio is
derived, not gated: a change that slows the barrier path would make it
look better.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402

APPS = ("wc", "sort", "pp", "knn")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One run: its JSON result and the report lines printed before it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=200,
    ).stdout
    lines = out.splitlines()
    return json.loads(lines[-1]), " | ".join(lines[:-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeds sweep with spreads.")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write raw results here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    raw: dict[str, list[dict]] = {}
    medians: dict[str, dict[str, float]] = {}
    for workload in args.workloads:
        runs = raw[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.monotonic()
            result, report = run_once(workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={time.monotonic() - start:.1f}s | {report}", flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        medians[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            median = statistics.median(values)
            medians[workload][name] = median
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{quartile_spread(values):8.3f}"
            else:
                q1 = q3 = median
                spread = f"{'-':>8}"
            bound = bounds.get(name)
            print(f"  {name:32} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread} {bound if bound is not None else '':>6}")
    pair = ("threaded-barrierless", "threaded-barrier")
    if args.trace == 0 and all(w in medians for w in pair):
        print("\nderived (not gated): barrier-less / barrier median job time")
        for app in APPS:
            key = f"{app}_job_s"
            ratio = medians[pair[0]][key] / medians[pair[1]][key]
            print(f"  {app:5} {ratio:6.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
