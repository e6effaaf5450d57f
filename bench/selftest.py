"""Self-tests of the benchmark's own machinery.

Usage: python3 bench/selftest.py      (or: python3 -m pytest bench/selftest.py)

Checks that self time is span minus covered children, that the tracer
restores every attribute it patched, that per-layer counts repeat
exactly across two traced sessions, that an altered report counts as a
failed job, and that results from different arithmetic backends are not
compared.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5
        traced_leaf()

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"leaf": 4.0, "middle": 1.5, "outer": 3.0}
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert sum(tracer.self_s.values()) == clock.now


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        clock.now += 2.0
        try:
            traced_failing()
        except ValueError:
            pass

    traced_failing = tracer.wrap("failing", failing)
    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"failing": 1.0, "outer": 2.0}


def _snapshot():
    import spechtpoly.cli  # noqa: F401  (loads every spechtpoly module)
    from spechtpoly.quotient import GradedQuotient

    mods = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "spechtpoly" or name.startswith("spechtpoly.")
    }
    return mods, dict(vars(GradedQuotient))


def test_install_patches_and_restore_puts_everything_back():
    before_mods, before_cls = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    import spechtpoly.cli
    import spechtpoly.quotient

    assert spechtpoly.cli.verify_basis is not before_mods["spechtpoly.quotient"]["verify_basis"]
    assert spechtpoly.cli.verify_basis is spechtpoly.quotient.verify_basis
    assert spechtpoly.quotient.GradedQuotient.__init__ is not before_cls["__init__"]
    tracer.restore()
    after_mods, after_cls = _snapshot()
    assert after_mods.keys() == before_mods.keys()
    for name, before in before_mods.items():
        after = after_mods[name]
        assert after.keys() == before.keys(), name
        for key, value in before.items():
            assert after[key] is value, f"{name}.{key} not restored"
    assert all(after_cls[k] is v for k, v in before_cls.items())


def _workdir() -> Path:
    path = BENCH / ".work"
    path.mkdir(exist_ok=True)
    return path


SMALL_SESSION = [list(job) for job in workloads.PROBE] + [
    ["verify", "--family", "Rnks", "--n", "3", "--k", "2", "--s", "1"],
    ["hilbert", "--family", "Rmu", "--mu", "2,1"],
]


def test_traced_counts_repeat_exactly():
    with tempfile.TemporaryDirectory(dir=_workdir()) as workdir:
        first = run.run_session(SMALL_SESSION, True, Path(workdir))[1]["layers"]
        second = run.run_session(SMALL_SESSION, True, Path(workdir))[1]["layers"]
    for name in run.counts():
        assert first[name] == second[name], name
    assert first["quotient.builds"] == 2
    assert first["quotient.cache_hits"] == 3  # Rmu(2,1) is built once, looked up four times
    assert first["quotient.verify_cells"] > 0
    assert first["linalg.solve_cells"] > 0


def test_altered_report_is_a_failed_job():
    reference = run.load_reference()
    argv = list(workloads.PROBE[0])
    with tempfile.TemporaryDirectory(dir=_workdir()) as workdir:
        job = run.run_session([argv], False, Path(workdir))[1]["jobs"][0]
    assert check.check_job(argv, job, reference) == []
    report = json.loads(job["stdout"])
    report["per_degree"][0]["rank"] += 1
    altered = dict(job, stdout=json.dumps(report))
    assert check.check_job(argv, altered, reference)
    assert check.check_job(argv, dict(job, rc=1), reference)
    assert check.check_job(argv, dict(job, stdout="", rc=None), reference)


def test_independent_dimensions():
    assert check.expected_dimension("Rn", {"n": 4}) == 24
    assert check.expected_dimension("Rnks", {"n": 3, "k": 2, "s": 0}) == 8
    assert check.expected_dimension("Rmu", {"mu": [2, 2, 1]}) == 30
    assert check.expected_dimension("Rnk", {"n": 3, "k": 2}) is None


def test_compare_refuses_mixed_backends():
    def record(backend, wall):
        stamp = {"workload": "w", "trace": 0, "backend": backend}
        return {"stamp": stamp, "metrics": {"wall_s": wall}}

    try:
        compare.compare([record("fractions.Fraction", 1.0)], [record("gmpy2.mpq", 0.1)])
    except compare.BackendMismatch:
        pass
    else:
        raise AssertionError("compared results from different backends")


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
