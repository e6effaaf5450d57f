"""Compare two sets of recorded benchmark runs, workload by workload.

Usage: python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the JSON lines that ``run.py --record`` (or
``runset.py``) appended.  For every workload and metric the table gives
both sides' median and quartile spread (interquartile distance over the
median) and the change of the median.  End-to-end metrics that got worse
by more than their bound in ``BENCHMARK.json`` are marked ``WORSE``.

Refuses (exit 2) when the runs were made with different arithmetic
backends: the backend alone moves timings about tenfold.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent


class BackendMismatch(Exception):
    """The records were made with different arithmetic backends."""


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def group(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for rec in records:
        for name, value in rec["metrics"].items():
            out[(rec["stamp"]["workload"], name)].append(value)
    return out


def check_backends(records: list[dict]) -> None:
    backends = {rec["stamp"]["backend"] for rec in records}
    if len(backends) > 1:
        raise BackendMismatch(f"records come from different backends: {sorted(backends)}")


def compare(before: list[dict], after: list[dict]) -> list[dict]:
    check_backends(before + after)
    old, new = group(before), group(after)
    rows = []
    for key in sorted(old.keys() & new.keys()):
        old_med, old_spread = summary(old[key])
        new_med, new_spread = summary(new[key])
        change = (new_med - old_med) / abs(old_med) if old_med else 0.0
        rows.append(
            {
                "workload": key[0],
                "metric": key[1],
                "before": old_med,
                "before_spread": old_spread,
                "after": new_med,
                "after_spread": new_spread,
                "change": change,
                "runs": (len(old[key]), len(new[key])),
            }
        )
    return rows


def bounds() -> dict[str, dict]:
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        rows = compare(load(argv[0]), load(argv[1]))
    except BackendMismatch as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    limits = bounds()
    for row in rows:
        mark = ""
        limit = limits.get(row["metric"])
        if limit is not None:
            worse = row["change"] if limit["better"] == "lower" else -row["change"]
            mark = "WORSE" if worse > limit["bound"] else "ok"
        print(
            f"{row['workload']:<20} {row['metric']:<28} "
            f"{row['before']:>12.6g} ±{row['before_spread']:5.1%}  "
            f"{row['after']:>12.6g} ±{row['after_spread']:5.1%}  "
            f"{row['change']:+7.1%}  n={row['runs'][0]}/{row['runs'][1]}  {mark}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
