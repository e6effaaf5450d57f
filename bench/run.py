"""Run one benchmark workload and print its metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--record FILE]

Load shape: one client in a closed loop.  A session is a fresh worker
interpreter (``bench/worker.py``) that imports ``spechtpoly.cli`` and runs
the workload's job list for the seed, one job after another.  One worker
runs at a time.  The run repeats whole sessions, with the same job list,
until the next one would end after ``--seconds``, and reports medians over
them.  Every job of every session is checked against ``reference.json``
and the independent facts in ``check.py``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median session
time from the first job's start to the last job's end), ``setup_s``
(median of interpreter start plus ``import spechtpoly.cli``, sampled in
set-up-only interpreters, one before each session, and at every session
start), ``peak_rss_mb``
(median worker ``ru_maxrss`` at the end of a session) and
``success_rate`` (share of jobs whose output is correct; ``error_rate``
is its complement and is printed too).

``--trace 1`` alternates untraced and traced sessions and prints the
per-layer metrics of ``spans.py``: times are medians over the traced
sessions, counts must repeat in every traced session, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record FILE`` also
appends the run, with its stamp, as one JSON line to FILE (see
``compare.py``).  Exit code 1, with no result line, when a session
cannot run at all, for example when ``src/spechtpoly`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HASH_SEED = "0"  # fixed PYTHONHASHSEED of every worker
SETUP_SAMPLES = 3  # set-up-only interpreters at the start of a run, besides two per session
SESSION_TIMEOUT_S = 150

class BenchError(Exception):
    """A session could not run; the benchmark exits 1 without a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_session(jobs: list, trace: bool, workdir: Path) -> tuple[float, dict]:
    """Run one fresh worker over ``jobs``; returns (set-up seconds, worker result)."""
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({"jobs": jobs, "trace": trace}), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a session ran longer than {SESSION_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        tail = (first + out + err)[-2000:]
        raise BenchError(f"worker exited with {proc.returncode}: {tail}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def load_reference() -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run sessions for about ``seconds``; returns the run's record."""
    if not (ROOT / "src" / "spechtpoly").is_dir():
        raise BenchError(f"no package source at {ROOT / 'src' / 'spechtpoly'}")
    reference = load_reference()
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
    try:
        jobs = workloads.session(workload, seed, str(workdir))
        run_session([], False, workdir)  # warm-up: byte-compiles and checks the import
        deadline = time.perf_counter() + seconds
        setups = [run_session([], False, workdir)[0] for _ in range(SETUP_SAMPLES)]
        sessions: list[dict] = []
        durations: list[float] = []
        attempted = failed = 0
        while True:
            traced = trace and len(sessions) % 2 == 1
            began = time.perf_counter()
            setups.append(run_session([], False, workdir)[0])
            setup_s, result = run_session(jobs, traced, workdir)
            durations.append(time.perf_counter() - began)
            setups.append(setup_s)
            result["traced"] = traced
            sessions.append(result)
            for argv, job in zip(jobs, result["jobs"]):
                attempted += 1
                problems = check.check_job(argv, job, reference)
                if problems:
                    failed += 1
                    print("\n".join(problems), file=sys.stderr)
            if len(sessions) >= (2 if trace else 1) and (
                time.perf_counter() + statistics.median(durations) > deadline
            ):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = [s for s in sessions if not s["traced"]]
    stamp = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "backend": sessions[0]["backend"],
        "python": sessions[0]["python"],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "pythonhashseed": HASH_SEED,
        "sessions": len(sessions),
        "jobs_per_session": len(jobs),
    }
    if trace:
        metrics = layer_metrics([s for s in sessions if s["traced"]], plain, counts())
    else:
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
            "success_rate": 100.0 * (attempted - failed) / attempted,
        }
    return {
        "stamp": stamp,
        "samples": {
            "session_wall_s": [s["wall_s"] for s in sessions],
            "setup_s": setups,
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def counts() -> set[str]:
    """Per-layer metrics that are counts: they must repeat in every traced session."""
    return {name for name, unit in declared_units(True).items() if unit == "count"}


def layer_metrics(traced: list[dict], plain: list[dict], counts: set[str]) -> dict:
    layers = [s["layers"] for s in traced]
    out = {}
    for name in layers[0]:
        if name == "trace.span_self_s":
            continue
        values = [layer[name] for layer in layers]
        if name in counts:
            if len(set(values)) != 1:
                raise BenchError(f"{name} differs between traced sessions: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    out["trace.overhead_s"] = traced_wall - statistics.median(s["wall_s"] for s in plain)
    out["trace.coverage"] = statistics.median(
        s["layers"]["trace.span_self_s"] / s["wall_s"] for s in traced
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run with its stamp to this JSON-lines file")
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = declared_units(bool(args.trace))
    if units.keys() != record["metrics"].keys():
        print(f"benchmark failed: metrics {sorted(record['metrics'])} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    for name, value in record["metrics"].items():
        print(f"{name} {value} {units[name]}")
    if not args.trace:
        error_rate = record["failed"] / record["attempted"]
        print(f"error_rate {error_rate} share ({record['failed']} of {record['attempted']} jobs)")
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
