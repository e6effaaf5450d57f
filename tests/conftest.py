from __future__ import annotations

import itertools
import os
import random

import pytest
from hypothesis import settings

from spechtpoly.tableaux import Tableau, reading_word

# Property tests draw the same examples on every run, and no example fails
# for being slow on a busy machine.
settings.register_profile("spechtpoly", derandomize=True, deadline=None)
settings.load_profile("spechtpoly")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(98711)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Carry acceptance-line labels from the test function onto its report."""
    outcome = yield
    report = outcome.get_result()
    info = getattr(getattr(item, "function", None), "acceptance_line", None)
    if info and (report.when == "call" or (report.when == "setup" and report.skipped)):
        report.user_properties.append(("acceptance_line", info))


def pytest_runtest_logreport(report):
    """Print one PASS/FAIL line per acceptance criterion outside capture."""
    for name, info in report.user_properties:
        if name != "acceptance_line":
            continue
        num, label = info
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        print(f"ACCEPTANCE {num:>2}: {status}  {label}")


def long_suite_enabled() -> bool:
    return os.environ.get("SPECHTPOLY_LONG", "") == "1"


requires_long = pytest.mark.skipif(
    not long_suite_enabled(),
    reason="set SPECHTPOLY_LONG=1 to run the long suite",
)


def bijective_fillings(shape) -> list[Tableau]:
    """Every bijective filling of ``shape``, no inequalities, sorted by reading word."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    out = []
    for perm in itertools.permutations(range(1, len(cells) + 1)):
        grid = [[0] * length for length in shape]
        for (r, c), v in zip(cells, perm):
            grid[r][c] = v
        out.append(Tableau(tuple(tuple(row) for row in grid)))
    return sorted(out, key=reading_word)
