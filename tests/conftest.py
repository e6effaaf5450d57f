from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

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
