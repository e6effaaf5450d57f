"""The bench tracer's targets exist in the package.

``bench/spans.py`` wraps spechtpoly functions by name from the outside,
so deleting or renaming a traced function breaks ``bench/run.py --trace 1``
without breaking any import.  These tests fail on such a change instead.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def _resolve(module_name: str, attr: str):
    """The target, its module imported (``Tracer.install`` patches loaded modules only)."""
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_trace_target_is_a_callable(monkeypatch):
    spans = _spans(monkeypatch)
    for name, module_name, attr in spans.TARGETS:
        assert callable(_resolve(module_name, attr)), (name, module_name, attr)


def test_tracer_installs_and_restores(monkeypatch):
    spans = _spans(monkeypatch)
    before = {(m, a): _resolve(m, a) for _, m, a in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(_resolve(m, a) is not fn for (m, a), fn in before.items())
    finally:
        tracer.restore()
    assert all(_resolve(m, a) is fn for (m, a), fn in before.items())
