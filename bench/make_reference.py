"""Write ``bench/reference.json``: the expected output of every pool job.

Usage: python3 bench/make_reference.py [--sympy]

Runs every job any seed can produce, plus one sweep over all the sweep
cases, in one worker session; records each job's exit code and report
digest and each sweep case's verdict and result digest.  Refuses to
write when an independent fact in ``check.py`` fails.  ``--sympy`` also
checks the Hilbert series of every ``quotient-build`` ring against one
computed from a ``sympy.groebner`` basis of the Garsia-Procesi
generators, built here without the code under test.

Run it only on code whose answers are trusted: the benchmark counts every
later difference from this file as a failed job.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

import check
import run
import workloads


def sympy_hilbert(mu: tuple[int, ...]) -> list[int]:
    """Hilbert function of R_mu from a Groebner basis of its Tanisaki ideal.

    Garsia and Procesi: the ideal is generated by e_r(S) for every subset
    S of the variables with |S| = k and r > k - d_k(mu), where d_k(mu) is
    the sum of the last k parts of the conjugate of mu, padded with zeros
    to length n.
    """
    import sympy

    n = sum(mu)
    xs = sympy.symbols(f"x1:{n + 1}")
    conj = [sum(1 for p in mu if p > i) for i in range(n)]
    gens = []
    for k in range(1, n + 1):
        lowest = k - sum(conj[n - k:]) + 1
        for subset in combinations(xs, k):
            for r in range(max(1, lowest), k + 1):
                gens.append(sum(sympy.Mul(*c) for c in combinations(subset, r)))
    basis = sympy.groebner(gens, *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]

    def standard(m):
        return not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)

    layer = {(0,) * n}
    hilbert = []
    while layer:
        hilbert.append(len(layer))
        layer = {
            m[:i] + (m[i] + 1,) + m[i + 1:] for m in layer for i in range(n)
        }
        layer = {m for m in layer if standard(m)}
    return hilbert


def build(jobs: list, result: dict) -> dict:
    reference: dict = {"jobs": {}, "cases": {}}
    for argv, job in zip(jobs, result["jobs"]):
        report = json.loads(job["stdout"])
        if argv[0] == "sweep":
            for case, res in zip(report["config"]["cases"], report["results"]):
                reference["cases"][workloads.case_key(case)] = {
                    "verdict": res["verdict"],
                    "digest": check.digest(res),
                }
        else:
            reference["jobs"][workloads.job_key(argv)] = {
                "rc": job["rc"],
                "digest": check.digest(report),
            }
    return reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sympy", action="store_true", help="check Hilbert series with sympy")
    args = parser.parse_args(argv)
    (run.BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ref-", dir=run.BENCH / ".work")
    try:
        jobs = workloads.reference_jobs(workdir)
        _, result = run.run_session(jobs, False, Path(workdir))
        reference = build(jobs, result)
        problems = []
        for job_argv, job in zip(jobs, result["jobs"]):
            problems += check.check_job(job_argv, job, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.sympy:
        for mu in workloads.QUOTIENT_MUS:
            argv_h = ["hilbert", "--family", "Rmu", "--mu", mu]
            job = result["jobs"][jobs.index(argv_h)]
            ours = json.loads(job["stdout"])["hilbert"]
            began = time.perf_counter()
            theirs = sympy_hilbert(tuple(int(p) for p in mu.split(",")))
            print(f"Rmu({mu}): sympy.groebner agrees: {ours == theirs} "
                  f"({time.perf_counter() - began:.1f} s)")
            if ours != theirs:
                problems.append(f"Rmu({mu}): hilbert {ours}, sympy.groebner gives {theirs}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    reference["stamp"] = {
        "backend": result["backend"],
        "python": result["python"],
        "git_sha": run.git_sha(),
        "sympy_checked": args.sympy,
    }
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference['jobs'])} jobs and {len(reference['cases'])} sweep cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
