"""Correctness of one job's output: stored reference plus independent facts.

The reference (``reference.json``, written by ``make_reference.py``)
holds, for every pool job, the exit code and a digest of the canonical
JSON report, and for every sweep case the digest of its result.  The
independent facts do not come from the code under test: the known
dimensions of ``Rn``, ``Rnks(n, k, 0)`` and ``Rmu``, the paper's claim
that every family in the pools is a basis, and ``equal: true`` from
``frobenius --compare``.
"""

from __future__ import annotations

import hashlib
import json
from math import factorial, prod

from workloads import case_key, job_key


def digest(report: dict) -> str:
    """sha256 of the report as sorted compact JSON, without its version stamp."""
    body = {k: v for k, v in report.items() if k != "version"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expected_dimension(family: str, params: dict) -> int | None:
    """Dimensions known in closed form, independent of the quotient engine."""
    if family == "Rn":
        return factorial(params["n"])
    if family == "Rnks" and params["s"] == 0:
        return params["k"] ** params["n"]
    if family == "Rmu":
        mu = params["mu"]
        return factorial(sum(mu)) // prod(factorial(p) for p in mu)
    return None


def _flag_params(argv: list[str]) -> tuple[str | None, dict]:
    flags = dict(zip(argv[1::2], argv[2::2]))
    params: dict = {}
    for name in ("n", "k", "s"):
        if f"--{name}" in flags:
            params[name] = int(flags[f"--{name}"])
    if "--mu" in flags:
        params["mu"] = [int(p) for p in flags["--mu"].split(",")]
    return flags.get("--family"), params


def _fact_problems(family: str | None, params: dict, dimension, verdict) -> list[str]:
    problems = []
    want = expected_dimension(family, params) if family else None
    if want is not None and dimension != want:
        problems.append(f"{family} {params}: dimension {dimension}, expected {want}")
    if verdict is not None and verdict is not True:
        problems.append(f"{family} {params}: family is not a basis")
    return problems


def _check_sweep(argv: list[str], rc, report: dict, reference: dict) -> list[str]:
    with open(argv[argv.index("--config") + 1], encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    if report.get("config", {}).get("cases") != cases:
        return ["sweep report does not echo its cases"]
    results = report.get("results", [])
    if len(results) != len(cases) or report.get("total") != len(cases):
        return [f"sweep reported {len(results)} results for {len(cases)} cases"]
    problems = []
    for case, result in zip(cases, results):
        ref = reference["cases"].get(case_key(case))
        if ref is None:
            problems.append(f"no reference for sweep case {case_key(case)}")
            continue
        if digest(result) != ref["digest"]:
            problems.append(f"sweep case {case_key(case)}: result differs from reference")
        problems += _fact_problems(
            case["family"], case["params"], result.get("dimension"), result.get("verdict")
        )
    want_rc = 0 if all(reference["cases"].get(case_key(c), {}).get("verdict") for c in cases) else 1
    if rc != want_rc:
        problems.append(f"sweep exit code {rc}, expected {want_rc}")
    return problems


def check_job(argv: list[str], job: dict, reference: dict) -> list[str]:
    """Every way one job's exit code and report differ from what is expected."""
    rc = job["rc"]
    try:
        report = json.loads(job["stdout"])
    except ValueError:
        return [f"{job_key(argv)}: exit {rc}, output is not JSON: {job['stderr'][-300:]}"]
    if argv[0] == "sweep":
        return _check_sweep(argv, rc, report, reference)
    ref = reference["jobs"].get(job_key(argv))
    if ref is None:
        return [f"no reference for {job_key(argv)}"]
    problems = []
    if rc != ref["rc"]:
        problems.append(f"{job_key(argv)}: exit code {rc}, expected {ref['rc']}")
    if digest(report) != ref["digest"]:
        problems.append(f"{job_key(argv)}: report differs from reference")
    if argv[0] not in ("verify", "hilbert", "frobenius"):
        return problems
    family, params = _flag_params(argv)
    if argv[0] == "verify":
        problems += _fact_problems(family, params, report.get("dimension"), report.get("verdict"))
    elif argv[0] == "hilbert":
        problems += _fact_problems(family, params, report.get("dimension"), None)
    elif argv[0] == "frobenius":
        dimension = sum(report.get("computed", {}).get("hilbert", []))
        problems += _fact_problems(family, params, dimension, None)
        if "--compare" in argv and report.get("equal") is not True:
            problems.append(f"{job_key(argv)}: character differs from the closed formula")
    return problems
