#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as its acceptance rule computes it.

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every metric the median and the quartile spread (``Q3 - Q1`` of the
values, from ``statistics.quantiles(values, n=4)``, over the median)
next to the metric's bound in ``BENCHMARK.json``.  Run from the root of
a checkout::

    python3 perfbench/spread.py --workload replay-audit --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, bench["run_seconds"])
        for name, cell in result["metrics"].items():
            values.setdefault(name, []).append(cell["value"])
        print(f"seed {seed}: correct={result['correct']}", flush=True)
    worst = 0.0
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median)
        else:
            spread = 0.0
        bound = bounds[name]
        flag = ""
        if name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER" if spread > bound else (
                "  >1/3" if spread > bound / 3 else "")
        print(f"{name:30s} median={median:<12.6g} spread={spread:.4f}"
              f" bound={bound}{flag}")
    print(f"worst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
