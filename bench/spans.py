"""Outside-in tracing: wrap spechtpoly's layer functions from the outside.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces
each target function by a timing wrapper in every ``spechtpoly`` module
namespace that holds it (the modules import each other's functions by
name, so patching only the defining module would miss most calls), and
``Tracer.restore`` puts every original back.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the spans it directly contains, so self times add up to the
outermost spans' durations without double counting.  Time spent in
modules that are not wrapped (``polyring``, ``perms``) is self time of
the enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from itertools import combinations_with_replacement

# (span name, module, attribute) -- attribute "Class.method" patches a method.
TARGETS = (
    ("cli.main", "spechtpoly.cli", "main"),
    ("quotient.ideal", "spechtpoly.quotient", "build_ideal"),
    ("quotient.lookup", "spechtpoly.quotient", "graded_quotient"),
    ("quotient.build", "spechtpoly.quotient", "GradedQuotient.__init__"),
    ("quotient.coords", "spechtpoly.quotient", "GradedQuotient.coords"),
    ("quotient.verify", "spechtpoly.quotient", "verify_basis"),
    ("quotient.transition", "spechtpoly.quotient", "transition_matrix"),
    ("quotient.witness", "spechtpoly.quotient", "almost_lower_triangular"),
    ("specht.family", "spechtpoly.specht", "build_basis_family"),
    ("specht.family", "spechtpoly.quotient", "gp_recursion_family"),
    ("specht.higher_specht", "spechtpoly.specht", "higher_specht"),
    ("linalg.solve", "spechtpoly._linalg", "solve_in_span"),
    ("linalg.kernel", "spechtpoly._linalg", "kernel_basis"),
    ("symfunc.frobenius", "spechtpoly.symfunc", "graded_frobenius"),
    ("symfunc.formula", "spechtpoly.symfunc", "hall_littlewood_cocharge"),
    ("symfunc.formula", "spechtpoly.symfunc", "grfrob_formula_rnk"),
    ("symfunc.formula", "spechtpoly.symfunc", "grfrob_formula_rnkmu"),
    ("tableaux.enumerate", "spechtpoly.tableaux", "enumerate_tableaux"),
)


def _verify_cells(tracer, args, kwargs, result):
    tracer.counts["quotient.verify_cells"] += sum(
        row["count"] * row["expected"] for row in result["per_degree"]
    )


def _solve_cells(tracer, args, kwargs, result):
    columns, targets = args[0], args[1]
    height = len(columns[0]) if columns else (len(targets[0]) if targets else 0)
    tracer.counts["linalg.solve_cells"] += height * (len(columns) + len(targets))


def _family_elems(tracer, args, kwargs, result):
    tracer.counts["specht.family_elems"] += len(result)


def _quotient_built(tracer, args, kwargs, result):
    tracer.quotients.append(args[0])


# Counters read off a span's arguments or result, after the span closes.
HOOKS = {
    "quotient.verify": _verify_cells,
    "linalg.solve": _solve_cells,
    "specht.family": _family_elems,
    "quotient.build": _quotient_built,
}


class Tracer:
    """Span stack, per-span self time and call counts, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.quotients: list = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """A wrapper that records ``fn``'s calls as spans called ``name``."""
        hook = HOOKS.get(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.self_s[name] += duration - children[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        """Wrap every target wherever a loaded ``spechtpoly`` module refers to it."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "spechtpoly" or name.startswith("spechtpoly.")
        ]
        try:
            for name, module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self.wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _monomials(nvars: int, degree: int):
    for combo in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        yield tuple(exp)


def table_size(quotients) -> tuple[int, int]:
    """(rows, nonzeros) of the reduction tables, read through ``reduce_monomial``.

    Every monomial of every degree up to the top has one row, the sparse
    coordinates of its normal form.
    """
    rows = nnz = 0
    for q in quotients:
        for d in range(q.max_degree + 1):
            for exp in _monomials(q.nvars, d):
                rows += 1
                nnz += len(q.reduce_monomial(exp))
    return rows, nnz


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass (the trace.* pair aside)."""
    t, c, n = tracer.self_s, tracer.calls, tracer.counts
    rows, nnz = table_size(tracer.quotients)
    return {
        "quotient.build_s": t["quotient.build"],
        "quotient.builds": c["quotient.build"],
        "quotient.cache_hits": c["quotient.lookup"] - c["quotient.build"],
        "quotient.table_rows": rows,
        "quotient.table_nnz": nnz,
        "quotient.ideal_s": t["quotient.ideal"],
        "quotient.lookup_s": t["quotient.lookup"],
        "quotient.coords_s": t["quotient.coords"],
        "quotient.coords_calls": c["quotient.coords"],
        "quotient.verify_s": t["quotient.verify"],
        "quotient.verify_cells": n["quotient.verify_cells"],
        "quotient.transition_s": t["quotient.transition"],
        "quotient.witness_s": t["quotient.witness"],
        "linalg.solve_s": t["linalg.solve"],
        "linalg.solve_cells": n["linalg.solve_cells"],
        "linalg.kernel_s": t["linalg.kernel"],
        "specht.family_s": t["specht.family"],
        "specht.family_elems": n["specht.family_elems"],
        "specht.higher_specht_s": t["specht.higher_specht"],
        "specht.higher_specht_calls": c["specht.higher_specht"],
        "symfunc.frobenius_s": t["symfunc.frobenius"],
        "symfunc.formula_s": t["symfunc.formula"],
        "tableaux.enumerate_s": t["tableaux.enumerate"],
        "tableaux.enumerate_calls": c["tableaux.enumerate"],
        "cli.self_s": t["cli.main"],
        "trace.span_self_s": sum(t.values()),
    }
