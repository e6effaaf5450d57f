from __future__ import annotations

import json
import shutil
import subprocess

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from spechtpoly import cli
from spechtpoly.cli import main, report_schema
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
        cli, "grfrob_formula_rnk", lambda n, k: GradedSchurExpansion(n)
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
    out = tmp_path / "matrix.csv"
    code = main(
        [
            "transition",
            "--mu",
            "3,3",
            "--d",
            "2",
            "--format",
            "csv",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 9 and all(len(r.split(",")) == 9 for r in rows)
    sidecar = json.loads((tmp_path / "matrix.csv.labels.json").read_text())
    assert sidecar["command"] == "transition"
    assert sidecar["almost_lower_triangular"] is True
    assert len(sidecar["rows"]) == 9
    check_schema(sidecar)
    assert capsys.readouterr().out == ""


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


def test_sweep_generated(capsys):
    code, report = run_json(capsys, ["sweep", "--family", "Rmu", "--max-n", "3"])
    assert code == 0
    assert report["total"] == 1 + 2 + 3
    assert report["passed"] == report["total"]
    assert all(r["verdict"] for r in report["results"])
    check_schema(report)


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


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["hilbert", "--family", "Rn", "--n", "3", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["hilbert"] == [1, 2, 2, 1]


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
    exe = shutil.which("spechtpoly")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "hilbert", "--family", "Rn", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["hilbert"] == [1, 2, 2, 1]
