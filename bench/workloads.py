"""The four benchmark workloads: fixed job pools, ordered by the seed.

A job is the argv of one ``spechtpoly`` CLI call.  Every workload's job
list is its whole pool in an order drawn from the seed, after the same
three-call probe.  The seed never changes which jobs run, only their
order, so the work in a run (and so ``wall_s``) does not depend on the
seed; order still matters because quotients and ``lru_cache`` results
are shared across the jobs of one session.

NOTES.md records why each workload exists, which layer it stresses and
bypasses, and which jobs were left out of each pool with their times.
"""

from __future__ import annotations

import json
import random

# The three smallest calls that reach every traced layer (family build,
# verify, coords, Frobenius, formulas, transition, witness, linalg), so
# each layer records a span in every workload.  Together they take a few
# milliseconds, well under 1% of any pass.
PROBE = (
    ("verify", "--family", "Rmu", "--mu", "2,1"),
    ("frobenius", "--family", "Rmu", "--mu", "2,1", "--compare"),
    ("transition", "--mu", "2,1", "--d", "1"),
)

VERIFY_RANK = tuple(
    ("verify", "--family", "Rnks", "--n", "5", "--k", str(k), "--s", str(s))
    for k, s in ((4, 2), (4, 3))
)

QUOTIENT_MUS = ("2,1,1,1,1", "2,2,1,1", "3,1,1,1", "3,3,1")
QUOTIENT_BUILD = tuple(
    job
    for mu in QUOTIENT_MUS
    for job in (
        ("frobenius", "--family", "Rmu", "--mu", mu, "--compare"),
        ("hilbert", "--family", "Rmu", "--mu", mu),
    )
)

# (mu, degrees, normalizations)
_TRANSITIONS = (
    ("3,2,1", range(5), ("raw", "primitive")),
    ("2,2,1,1", range(8), ("raw",)),
    ("4,2,1", range(3), ("raw",)),
)
TRANSITION_SESSION = tuple(
    ("transition", "--mu", mu, "--d", str(d), "--normalize", norm)
    for mu, degrees, norms in _TRANSITIONS
    for d in degrees
    for norm in norms
)


def _partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def sweep_cases() -> list[dict]:
    """Small verification cases from every family (88 in all)."""
    cases: list[dict] = []
    for n in range(1, 6):
        cases.append({"family": "Rn", "params": {"n": n}})
        for k in range(1, n + 1):
            cases.append({"family": "Rnk", "params": {"n": n, "k": k}})
        for mu in _partitions(n):
            cases.append({"family": "Rmu", "params": {"mu": list(mu)}})
    for n in range(1, 5):
        for k in range(1, n + 1):
            for s in range(k + 1):
                cases.append({"family": "Rnks", "params": {"n": n, "k": k, "s": s}})
    for n in range(2, 7):
        for k in range(1, n + 1):
            cases.append({"family": "Rnkmu", "params": {"n": n, "k": k, "mu": [n - 1]}})
    return cases


SWEEP_CONFIGS = 4  # the sweep cases are split over this many sweep calls

SWEEP_EXTRAS = (
    ("hilbert", "--family", "Rnks", "--n", "5", "--k", "2", "--s", "1"),
    ("hilbert", "--family", "Rnk", "--n", "6", "--k", "2"),
    ("hilbert", "--family", "Rmu", "--mu", "4,2"),
    ("hilbert", "--family", "Rnkmu", "--n", "5", "--k", "2", "--mu", "3,1"),
    ("specht-eval", "--s", "1 1/2", "--t", "1 2/3"),
    ("specht-eval", "--s", "1 1 2/2", "--t", "1 2 4/3"),
    ("specht-eval", "--s", "1 1 1/2 2", "--t", "1 3 5/2 4"),
    ("specht-eval", "--s", "1 1 2 3/2 4", "--t", "1 2 3 4/5 6"),
)

WORKLOADS = ("verify-rank", "quotient-build", "transition-session", "sweep-small")


def case_key(case: dict) -> str:
    return json.dumps({"family": case["family"], "params": case["params"]}, sort_keys=True)


def job_key(argv) -> str:
    return " ".join(argv)


def session(workload: str, seed: int, workdir: str) -> list[list[str]]:
    """The job list of one session: the probe, then the pool in seed order.

    ``sweep-small`` writes its sweep configs into ``workdir``; the argv
    names them by absolute path.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-rank":
        pool = list(VERIFY_RANK)
    elif workload == "quotient-build":
        pool = list(QUOTIENT_BUILD)
    elif workload == "transition-session":
        pool = list(TRANSITION_SESSION)
    elif workload == "sweep-small":
        cases = sweep_cases()
        rng.shuffle(cases)
        pool = list(SWEEP_EXTRAS)
        for i in range(SWEEP_CONFIGS):
            path = f"{workdir}/sweep{i}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"cases": cases[i::SWEEP_CONFIGS]}, fh)
            pool.append(("sweep", "--config", path, "--jobs", "1"))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(pool)
    return [list(job) for job in PROBE + tuple(pool)]


def reference_jobs(workdir: str) -> list[list[str]]:
    """Every job any seed can produce, plus one sweep over all the cases."""
    path = f"{workdir}/sweep_all.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cases": sweep_cases()}, fh)
    jobs = PROBE + VERIFY_RANK + QUOTIENT_BUILD + TRANSITION_SESSION + SWEEP_EXTRAS
    return [list(job) for job in jobs] + [["sweep", "--config", path, "--jobs", "1"]]
