from __future__ import annotations

import ast
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from spechtpoly import cli, quotient, specht
from spechtpoly.cli import main, report_schema
from spechtpoly.families import BASES, FAMILIES
from spechtpoly.symfunc import GradedSchurExpansion

needs_jsonschema = pytest.mark.skipif(
    jsonschema is None, reason="jsonschema not installed"
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def check_schema(report):
    if jsonschema is not None:
        jsonschema.validate(report, report_schema())


# -- verify ---------------------------------------------------------------------


def test_verify_rn_ok(capsys):
    code, report = run_json(capsys, ["verify", "--family", "Rn", "--n", "3"])
    assert code == 0
    assert report["command"] == "verify"
    assert report["verdict"] is True
    assert report["dimension"] == 6
    assert report["config"]["params"] == {"n": 3}
    check_schema(report)


def test_verify_rnkmu_ok(capsys):
    code, report = run_json(
        capsys,
        ["verify", "--family", "Rnkmu", "--n", "4", "--k", "2", "--mu", "3"],
    )
    assert code == 0
    assert report["verdict"] is True
    assert report["family_size"] == 2 + 1 * 3
    check_schema(report)


def test_verify_failure_exit_code(capsys, monkeypatch):
    fake = {
        "family": "Rn",
        "params": {"n": 3},
        "verdict": False,
        "hilbert": [1],
        "dimension": 1,
        "family_size": 0,
        "per_degree": [],
        "failures": [{"kind": "count", "d": 0, "expected": 1, "count": 0}],
    }
    monkeypatch.setattr(cli, "_verify_report", lambda family, params: dict(fake))
    code, report = run_json(capsys, ["verify", "--family", "Rn", "--n", "3"])
    assert code == 1
    assert report["verdict"] is False
    check_schema(report)


def test_verify_missing_flag_is_usage_error(capsys):
    code = main(["verify", "--family", "Rnk", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--k is required" in captured.err


def test_verify_unknown_family(capsys):
    code = main(["verify", "--family", "Rxyz", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown family" in captured.err


def test_verify_rnkmu_general_mu_rejected(capsys):
    code = main(
        ["verify", "--family", "Rnkmu", "--n", "4", "--k", "2", "--mu", "2,1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "single-part mu" in captured.err


def _raising(exc):
    def graded_quotient(family, **params):
        raise exc

    return graded_quotient


def test_out_of_memory_is_a_clear_usage_error(capsys, monkeypatch):
    # stands in for an input too large to build, such as verify --family Rn --n 40,
    # without allocating for real
    monkeypatch.setattr(cli, "graded_quotient", _raising(MemoryError()))
    code = main(["verify", "--family", "Rn", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: out of memory")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "ring,argv",
    [
        ("Rn", ["verify", "--family", "Rn", "--n", "40"]),  # e_20 alone has C(40, 20) terms
        ("Rnks", ["verify", "--family", "Rnks", "--n", "12", "--k", "12", "--s", "0"]),
        ("Rnks", ["hilbert", "--family", "Rnks", "--n", "7", "--k", "7", "--s", "0"]),  # 7^7 > 9!
        ("Rnkmu", ["hilbert", "--family", "Rnkmu", "--n", "9", "--k", "9", "--mu", "1,1"]),
        ("Rmu", ["transition", "--mu", ",".join(["1"] * 12), "--d", "5"]),  # before the families
    ],
)
def test_too_large_input_is_rejected_before_any_build(capsys, monkeypatch, ring, argv):
    def built(*args, **kwargs):
        raise AssertionError("a generator or a family was built")

    monkeypatch.setitem(FAMILIES, ring, FAMILIES[ring]._replace(ideal=built))
    monkeypatch.setattr(quotient, "build_basis_family", built)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "is too large; the size cap is" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_degree_cap_is_a_mathematical_failure(capsys, monkeypatch):
    cap = RuntimeError("quotient did not become zero by the degree cap 4")
    monkeypatch.setattr(cli, "graded_quotient", _raising(cap))
    code = main(["hilbert", "--family", "Rn", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"mathematical failure: {cap}\n"
    assert captured.out == ""


def test_malformed_partition_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "Rmu", "--mu", "1,2"])
    assert exc.value.code == 2


# -- frobenius ------------------------------------------------------------------


def test_frobenius_plain(capsys):
    code, report = run_json(capsys, ["frobenius", "--family", "Rn", "--n", "3"])
    assert code == 0
    assert report["computed"]["hilbert"] == [1, 2, 2, 1]
    assert report["computed"]["pretty"].startswith("s[3]")
    assert "formula" not in report
    check_schema(report)


def test_frobenius_compare_equal(capsys):
    code, report = run_json(
        capsys,
        ["frobenius", "--family", "Rnk", "--n", "4", "--k", "2", "--compare"],
    )
    assert code == 0
    assert report["equal"] is True
    assert report["formula"] == report["computed"]
    check_schema(report)


def test_frobenius_compare_rmu(capsys):
    code, report = run_json(
        capsys, ["frobenius", "--family", "Rmu", "--mu", "2,2", "--compare"]
    )
    assert code == 0 and report["equal"] is True
    check_schema(report)


def test_frobenius_compare_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "grfrob_formula_rnkmu", lambda n, k, mu: GradedSchurExpansion(n)
    )
    code, report = run_json(
        capsys,
        ["frobenius", "--family", "Rnk", "--n", "3", "--k", "2", "--compare"],
    )
    assert code == 1
    assert report["equal"] is False
    check_schema(report)


def test_frobenius_no_formula_for_rnks(capsys):
    code = main(
        ["frobenius", "--family", "Rnks", "--n", "3", "--k", "2", "--s", "1", "--compare"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "no closed character formula" in captured.err


# -- transition -----------------------------------------------------------------


def test_transition_json(capsys):
    code, report = run_json(capsys, ["transition", "--mu", "2,1", "--d", "1"])
    assert code == 0
    assert report["almost_lower_triangular"] is True
    m = report["matrix"]
    assert len(m) == 2 and all(len(row) == 2 for row in m)
    assert all(isinstance(v, str) for row in m for v in row)
    assert len(report["rows"]) == len(report["cols"]) == 2
    assert report["witness"] is not None
    check_schema(report)


def test_transition_csv_with_sidecar(tmp_path, capsys):
    for job, rows, verdict in (
        (["--mu", "3,3", "--d", "2"], 9, True),
        (["--mu", "3,2,1", "--d", "3"], 24, False),
    ):
        out = tmp_path / f"{job[1]}.csv"
        code = main(["transition", *job, "--format", "csv", "--output", str(out)])
        assert code == (0 if verdict else 1)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == rows and all(len(r.split(",")) == rows for r in lines)
        sidecar = json.loads(Path(f"{out}.labels.json").read_text())
        assert sidecar["command"] == "transition"
        assert sidecar["almost_lower_triangular"] is verdict
        assert len(sidecar["rows"]) == rows
        check_schema(sidecar)
        assert capsys.readouterr().out == ""
        # the sidecar is the JSON report of the same job without its matrix
        # (and without a null witness); the CSV holds that matrix
        _, report = run_json(capsys, ["transition", *job])
        assert [",".join(row) for row in report.pop("matrix")] == lines
        if report["witness"] is None:
            del report["witness"]
        assert sidecar == report


def test_transition_csv_requires_output(capsys):
    code = main(["transition", "--mu", "2,1", "--d", "0", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert "requires --output" in captured.err


def test_transition_negative_degree_is_usage_error(capsys):
    code = main(["transition", "--mu", "2,1", "--d", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "nonnegative" in captured.err


def test_transition_empty_mu_is_usage_error(capsys):
    code = main(["transition", "--mu", "", "--d", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "mu must be nonempty" in captured.err


BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def _bench_reference() -> dict:
    return json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))


def _digest(report: dict) -> str:
    """sha256 of the report as sorted compact JSON, as bench/check.py computes it."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv",
    [
        job.split(" ")
        for job in _bench_reference()["jobs"]
        if job.startswith(("transition ", "verify "))
    ],
    ids=lambda argv: " ".join(argv[2:]),
)
def test_transition_report_matches_bench_reference(capsys, argv):
    # every transition and verify job of the reference: the witness of each
    # transition, triangular or not, is part of its digest
    want = _bench_reference()["jobs"][" ".join(argv)]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    del report["version"]
    assert code == want["rc"]
    assert _digest(report) == want["digest"]


def test_sweep_cases_match_bench_reference():
    # every sweep case of the benchmark, keyed by its sorted JSON in the reference
    cases = _bench_reference()["cases"]
    assert len(cases) == 88
    for key, want in cases.items():
        result = cli._run_case(json.loads(key))
        assert result["verdict"] is want["verdict"], key
        assert _digest(result) == want["digest"], key


def test_bench_trace_targets_resolve(monkeypatch):
    """Every function bench/spans.py wraps for ``--trace 1`` still exists, and
    its tracer installs and restores cleanly; the bench itself is only read."""
    monkeypatch.syspath_prepend(str(BENCH_REFERENCE.parent))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)

    def lookup(module_name, attr):
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            return vars(getattr(owner, cls_name))[meth]
        return getattr(owner, attr)

    originals = [lookup(module, attr) for _, module, attr in spans.TARGETS]
    assert all(callable(fn) for fn in originals)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [lookup(module, attr) for _, module, attr in spans.TARGETS]
        assert all(w is not fn for w, fn in zip(wrapped, originals))
    finally:
        tracer.restore()
    assert [lookup(module, attr) for _, module, attr in spans.TARGETS] == originals


def test_transition_empty_degree_slice(capsys):
    # a degree past the top of the quotient gives the 0x0 matrix, which is
    # trivially in almost-lower-triangular form
    code, report = run_json(capsys, ["transition", "--mu", "2,1", "--d", "9"])
    assert code == 0
    assert report["matrix"] == [] and report["rows"] == []
    assert report["almost_lower_triangular"] is True
    check_schema(report)


# -- sweep ----------------------------------------------------------------------


def test_sweep_empty(capsys):
    code, report = run_json(capsys, ["sweep"])
    assert code == 0
    assert report["total"] == 0 and report["all_pass"] is True
    check_schema(report)


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "Rn"],
        ["--max-n", "3"],
        ["--family", "Rn", "--max-n", "0"],
        ["--family", "Rn", "--max-n", "-1"],
        ["--config", "cases.json", "--family", "Rn"],
        ["--config", "cases.json", "--max-n", "3"],
        ["--config", "cases.json", "--family", "Rn", "--max-n", "3"],
    ],
    ids=[
        "family-alone", "max-n-alone", "max-n-zero", "max-n-negative",
        "config-and-family", "config-and-max-n", "config-and-both",
    ],
)
def test_sweep_half_specified_is_usage_error(capsys, argv):
    code = main(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_jobs_below_one_is_usage_error(capsys, jobs):
    code = main(["sweep", "--family", "Rn", "--max-n", "1", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --jobs must be at least 1\n"
    assert captured.out == ""


def test_sweep_generated(capsys):
    code, report = run_json(capsys, ["sweep", "--family", "Rmu", "--max-n", "3"])
    assert code == 0
    assert report["total"] == 1 + 2 + 3
    assert report["passed"] == report["total"]
    assert all(r["verdict"] for r in report["results"])
    check_schema(report)


def test_sweep_leaves_the_quotient_cache_alone(capsys, monkeypatch):
    # a long sweep must not keep every case's tables alive; an empty cache
    # makes the check independent of what earlier tests cached
    monkeypatch.setattr(quotient, "_QUOTIENT_CACHE", {})
    code, report = run_json(capsys, ["sweep", "--family", "Rmu", "--max-n", "3"])
    assert code == 0 and report["total"] == 6
    assert quotient._QUOTIENT_CACHE == {}
    main(["verify", "--family", "Rmu", "--mu", "2,1"])
    assert list(quotient._QUOTIENT_CACHE) != []  # verify keeps the cache


def test_sweep_config_file(tmp_path, capsys):
    cfg = tmp_path / "cases.json"
    cfg.write_text(
        json.dumps(
            {
                "cases": [
                    {"family": "Rn", "params": {"n": 3}},
                    {"family": "Rnk", "params": {"n": 3, "k": 2}},
                    {"family": "Rmu", "params": {"mu": [2, 1]}},
                ]
            }
        )
    )
    code, report = run_json(capsys, ["sweep", "--config", str(cfg)])
    assert code == 0
    assert report["total"] == 3 and report["all_pass"] is True
    check_schema(report)


def test_sweep_config_malformed(tmp_path, capsys):
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps({"cases": [{"family": "Nope", "params": {}}]}))
    code = main(["sweep", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert "malformed sweep case" in captured.err


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_sweep_config_unreadable(tmp_path, capsys, name):
    code = main(["sweep", "--config", str(tmp_path / name)])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read the sweep config" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "config",
    [
        {"cases": [{"family": "Rn", "params": {"n": 3, "k": 2}}]},
        {"cases": [{"family": "Rn", "params": {}}]},
        {"cases": [{"family": "Rn", "params": {"n": "3"}}]},
        {"cases": [{"family": "Rmu", "params": {"mu": [2, "1"]}}]},
        {"cases": {"family": "Rn", "params": {"n": 3}}},
    ],
    ids=["extra-param", "missing-param", "string-n", "string-part", "cases-not-a-list"],
)
def test_sweep_config_bad_params_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps(config))
    code = main(["sweep", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert "sweep" in captured.err
    assert captured.out == ""


def test_sweep_records_a_failing_case_and_goes_on(tmp_path, capsys):
    # Rnkmu is defined for single-part mu only; the case is well formed, so
    # it is not a usage error, and the cases after it must still run
    cfg = tmp_path / "cases.json"
    cfg.write_text(
        json.dumps(
            {
                "cases": [
                    {"family": "Rn", "params": {"n": 3}},
                    {"family": "Rnkmu", "params": {"n": 4, "k": 2, "mu": [2, 1]}},
                    {"family": "Rmu", "params": {"mu": [2, 1]}},
                ]
            }
        )
    )
    code = main(["sweep", "--config", str(cfg)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 1
    assert "Traceback (most recent call last)" in captured.err  # the case's traceback
    assert "ValueError" in captured.err
    assert report["total"] == 3 and report["passed"] == 2 and report["all_pass"] is False
    ok, bad, last = report["results"]
    assert ok["verdict"] is True and last["verdict"] is True
    assert "error" not in ok and "error" not in last
    assert bad["verdict"] is False
    assert bad["error"]["type"] == "ValueError"
    assert "single-part" in bad["error"]["message"]
    check_schema(report)
    out = tmp_path / "two.json"
    assert main(["sweep", "--config", str(cfg), "--jobs", "2", "--output", str(out)]) == 1
    assert json.loads(out.read_text()) == report


def test_sweep_parallel_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    argv = ["sweep", "--family", "Rnks", "--max-n", "3", "--output"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2), "--jobs", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# -- hilbert and specht-eval ------------------------------------------------------


def test_hilbert(capsys):
    code, report = run_json(capsys, ["hilbert", "--family", "Rn", "--n", "4"])
    assert code == 0
    assert report["hilbert"] == [1, 3, 5, 6, 5, 3, 1]
    assert report["dimension"] == 24
    assert report["max_degree"] == 6
    check_schema(report)


def test_specht_eval_json(capsys):
    code, report = run_json(
        capsys, ["specht-eval", "--s", "1 1/2", "--t", "1 2/3"]
    )
    assert code == 0
    assert report["degree"] == 1
    assert report["terms"] == [
        {"exponent": [0, 0, 1], "coeff": "2"},
        {"exponent": [1, 0, 0], "coeff": "-2"},
    ]
    check_schema(report)


def test_specht_eval_pretty(capsys):
    code = main(
        ["specht-eval", "--s", "1 1/2", "--t", "1 2/3", "--format", "pretty"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "2*x3 - 2*x1"


def test_specht_eval_shape_mismatch(capsys):
    code = main(["specht-eval", "--s", "1 1/2", "--t", "1 2 3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "shape mismatch" in captured.err


def test_specht_eval_evaluates_the_largest_row_the_cap_admits(capsys):
    # the row sum of 1 1 ... 1 is one orbit of 10! relabellings: one term
    s, t = " ".join(["1"] * 10), " ".join(map(str, range(1, 11)))
    start = time.perf_counter()
    code, report = run_json(capsys, ["specht-eval", "--s", s, "--t", t])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert report["terms"] == [{"exponent": [0] * 10, "coeff": "3628800"}]
    check_schema(report)
    assert elapsed < 2


def test_specht_eval_rejects_a_tableau_above_the_size_cap(capsys, monkeypatch):
    # rejected by the cap, whatever its cost: an 11-cell column would give 11! terms
    def symmetrized(*args, **kwargs):
        raise AssertionError("the symmetrizer ran")

    monkeypatch.setattr(specht, "apply_symmetrizer", symmetrized)
    row = " ".join(str(e) for e in range(1, 12))
    start = time.perf_counter()
    code = main(["specht-eval", "--s", " ".join(["1"] * 11), "--t", row])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: T has 11 cells; the size cap is 10\n"
    assert captured.out == ""
    assert elapsed < 0.5


def test_specht_eval_rejects_a_column_above_the_term_cap(capsys, monkeypatch):
    # ten cells pass the cell cap, but a 10-cell column gives 10! terms
    def expanded(*args, **kwargs):
        raise AssertionError("the symmetrizer expanded a term")

    monkeypatch.setattr(specht, "_signed_orbit_sum", expanded)
    column = "/".join(str(e) for e in range(1, 11))
    start = time.perf_counter()
    code = main(["specht-eval", "--s", column, "--t", column])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: T's symmetrizer can make 3628800 terms; the size cap is 362880\n"
    assert captured.out == ""
    assert elapsed < 0.5


_CSV = ["transition", "--mu", "2,1", "--d", "1", "--format", "csv"]


@pytest.mark.parametrize(
    "argv, sidecar",
    [
        (["verify", "--family", "Rn", "--n", "3"], False),
        (["frobenius", "--family", "Rn", "--n", "3"], False),
        (["transition", "--mu", "2,1", "--d", "1"], False),
        (["sweep", "--family", "Rn", "--max-n", "2"], False),
        (["hilbert", "--family", "Rn", "--n", "3"], False),
        (["specht-eval", "--s", "1 1/2", "--t", "1 2/3"], False),
        (_CSV, False),
        (_CSV, True),
    ],
    ids=["verify", "frobenius", "transition", "sweep", "hilbert", "specht-eval",
         "transition-csv", "transition-csv-sidecar"],
)
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv, sidecar):
    # a missing directory, or (sidecar) a directory where the CSV's sidecar goes
    out = tmp_path / "missing" / "out"
    if sidecar:
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.labels.json").mkdir()
    code = main([*argv, "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {out}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert out.exists() is sidecar


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["hilbert", "--family", "Rn", "--n", "3", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["hilbert"] == [1, 2, 2, 1]


# -- the family table -------------------------------------------------------------

FLAG_VALUES = {"n": "3", "k": "2", "s": "1", "mu": "2,1"}

# The cases of `sweep --family F --max-n 4` as the per-family if/elif ladder
# that the table replaced generated them: (param names, value tuples).
SWEEP_MAX_N_4 = {
    "Rn": (("n",), [(1,), (2,), (3,), (4,)]),
    "Rnk": (
        ("n", "k"),
        [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)],
    ),
    "Rnks": (
        ("n", "k", "s"),
        [
            (1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1), (2, 2, 2),
            (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1), (3, 2, 2), (3, 3, 0), (3, 3, 1),
            (3, 3, 2), (3, 3, 3), (4, 1, 0), (4, 1, 1), (4, 2, 0), (4, 2, 1), (4, 2, 2),
            (4, 3, 0), (4, 3, 1), (4, 3, 2), (4, 3, 3), (4, 4, 0), (4, 4, 1), (4, 4, 2),
            (4, 4, 3), (4, 4, 4),
        ],
    ),
    "Rmu": (
        ("mu",),
        [
            ([1],), ([2],), ([1, 1],), ([3],), ([2, 1],), ([1, 1, 1],), ([4],), ([3, 1],),
            ([2, 2],), ([2, 1, 1],), ([1, 1, 1, 1],),
        ],
    ),
    "Rnkmu": (
        ("n", "k", "mu"),
        [
            (2, 1, [1]), (2, 2, [1]), (3, 1, [2]), (3, 2, [2]), (3, 3, [2]), (4, 1, [3]),
            (4, 2, [3]), (4, 3, [3]), (4, 4, [3]),
        ],
    ),
}


def _family_flags(family, skip=None):
    return [
        arg
        for name in FAMILIES[family].params
        if name != skip
        for arg in (f"--{name}", FLAG_VALUES[name])
    ]


@pytest.mark.parametrize(
    "family, missing", [(f, name) for f, row in FAMILIES.items() for name in row.params]
)
def test_each_required_flag_is_a_usage_error(capsys, family, missing):
    code = main(["verify", "--family", family] + _family_flags(family, skip=missing))
    assert code == 2
    assert f"--{missing} is required" in capsys.readouterr().err


@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_cases_match_the_frozen_lists(capsys, monkeypatch, family):
    names, values = SWEEP_MAX_N_4[family]
    monkeypatch.setattr(cli, "_run_case", lambda case: {**case, "verdict": True})
    code, report = run_json(capsys, ["sweep", "--family", family, "--max-n", "4"])
    assert code == 0
    assert report["config"]["cases"] == [
        {"family": family, "params": dict(zip(names, v))} for v in values
    ]


@pytest.mark.parametrize("family", FAMILIES)
def test_compare_follows_the_formula_column(capsys, family):
    code = main(["frobenius", "--family", family, "--compare"] + _family_flags(family))
    captured = capsys.readouterr()
    if FAMILIES[family].formula is None:
        assert code == 2
        assert "no closed character formula" in captured.err
    else:
        assert code == 0
        assert json.loads(captured.out)["equal"] is True


def _str_constants(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for elt in node.elts:
            yield from _str_constants(elt)


def test_family_names_are_compared_only_in_the_table():
    """No ``==``/``in`` test against a ring or basis name outside families.py,
    so per-family if/elif ladders cannot come back."""
    names = set(FAMILIES) | set(BASES)
    equality = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    offenders = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, equality) for op in node.ops):
                continue
            for side in (node.left, *node.comparators):
                if names.intersection(_str_constants(side)):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# -- misc -------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from spechtpoly import __version__

    assert capsys.readouterr().out.strip() == __version__


@needs_jsonschema
def test_schema_is_valid_draft7():
    jsonschema.Draft7Validator.check_schema(report_schema())


def test_console_script_smoke():
    """One real subprocess call: the console script, else the module with src on the path."""
    exe = shutil.which("spechtpoly")
    env = None
    if exe is None:
        command = [sys.executable, "-m", "spechtpoly.cli"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    else:
        command = [exe]
    proc = subprocess.run(
        command + ["hilbert", "--family", "Rn", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["hilbert"] == [1, 2, 2, 1]


def test_importing_the_cli_generates_no_code_and_loads_no_error_path_module():
    """dataclasses would pull in inspect, ast, dis and tokenize at start-up, and
    traceback is only needed by a sweep case that raises."""
    budget = ("dataclasses", "inspect", "ast", "dis", "tokenize", "traceback")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = f"import sys, spechtpoly.cli; print(*[m for m in {budget!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_registry_rows_are_immutable():
    row = FAMILIES["Rn"]
    with pytest.raises(AttributeError):
        row.ring = "Rnk"
    assert row._replace(rule="changed").rule == "changed" and row.rule == "need n >= 0"
