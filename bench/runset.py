"""Run a set of benchmark runs and report each metric's spread.

Usage: python3 bench/runset.py OUT.jsonl [--seeds 1-10] [--workloads a,b]
                               [--trace 0|1]

Runs ``run.py`` once per seed and workload, alternating the workloads
within each seed so that drift in host speed hits all of them alike, and
appends every run to OUT.jsonl.  Then prints, per workload and metric,
the median and the interquartile distance over the median, next to a
third of the metric's bound in ``BENCHMARK.json``.  Two such files are
compared with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
import workloads

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",")
    for seed in args.seeds:
        for workload in names:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace), "--record", args.out]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            last = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"seed {seed} {workload}: correct={last['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()),
                  flush=True)
    limits = compare.bounds()
    records = [r for r in compare.load(args.out) if r["stamp"]["trace"] == args.trace]
    try:
        compare.check_backends(records)
    except compare.BackendMismatch as exc:
        print(f"refusing to summarise: {exc}", file=sys.stderr)
        return 2
    for (workload, metric), values in sorted(compare.group(records).items()):
        med, spread = compare.summary(values)
        bound = limits.get(metric, {}).get("bound")
        verdict = "" if bound is None else ("steady" if spread < bound / 3 else "NOISY")
        third = "" if bound is None else f"{bound / 3:.1%}"
        print(f"{workload:<20} {metric:<28} median {med:<12.6g} "
              f"spread {spread:6.1%}  bound/3 {third:>6}  n={len(values)} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
