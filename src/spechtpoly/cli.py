"""Command-line front end: verification runs, character reports, matrices."""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import __version__
from .families import FAMILIES, lookup
from .quotient import (
    GradedQuotient,
    almost_lower_triangular,
    build_ideal,
    graded_quotient,
    transition_matrix,
    verify_family,
)
from .specht import higher_specht
from .symfunc import GradedSchurExpansion, graded_frobenius, grfrob_formula_rnkmu
from .tableaux import parse_partition, parse_tableau


class UsageError(Exception):
    """Bad parameters; maps to exit code 2."""


def _resolve_params(family: str, args: argparse.Namespace) -> dict:
    """Collect the flags a family needs into a JSON-safe dict."""
    out: dict = {}
    for name in lookup(FAMILIES, family).params:
        value = getattr(args, name, None)
        if value is None:
            raise UsageError(f"--{name} is required for family {family}")
        out[name] = list(value) if name == "mu" else value
    return out


def _verify_report(family: str, params: dict) -> dict:
    quotient = graded_quotient(family, **params)
    return verify_family(quotient, family, params)


def _expansion_payload(exp: GradedSchurExpansion) -> dict:
    return {
        "terms": exp.to_jsonable(),
        "hilbert": list(exp.hilbert()),
        "pretty": str(exp),
    }


def _formula_expansion(family: str, params: dict) -> GradedSchurExpansion:
    row = FAMILIES[family]
    if row.formula is None:
        raise UsageError(f"no closed character formula is wired up for family {family}")
    return grfrob_formula_rnkmu(*row.formula(**row.check(params)))


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _json_report(report: dict, path: str | None) -> None:
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", path)


def _report_skeleton(command: str, config: dict) -> dict:
    return {"version": __version__, "command": command, "config": config}


# -- subcommand implementations ------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    params = _resolve_params(args.family, args)
    body = _verify_report(args.family, params)
    report = _report_skeleton("verify", {"family": args.family, "params": params})
    report.update(body)
    _json_report(report, args.output)
    return 0 if report["verdict"] else 1


def cmd_frobenius(args: argparse.Namespace) -> int:
    params = _resolve_params(args.family, args)
    quotient = graded_quotient(args.family, **params)
    computed = graded_frobenius(quotient)
    config = {"family": args.family, "params": params, "compare": args.compare}
    report = _report_skeleton("frobenius", config)
    report["computed"] = _expansion_payload(computed)
    code = 0
    if args.compare is not None:
        formula = _formula_expansion(args.family, params)
        report["formula"] = _expansion_payload(formula)
        report["equal"] = computed.coeffs == formula.coeffs
        code = 0 if report["equal"] else 1
    _json_report(report, args.output)
    return code


def cmd_transition(args: argparse.Namespace) -> int:
    if args.format == "csv" and args.output is None:
        raise UsageError("--format csv requires --output (a sidecar file is written)")
    mu = tuple(args.mu)
    result = transition_matrix(mu, args.d, normalize=args.normalize)
    verdict, witness = almost_lower_triangular(result.matrix)
    config = {"mu": list(mu), "d": args.d, "normalize": args.normalize}
    report = _report_skeleton("transition", config)
    report["matrix"] = [[str(v) for v in row] for row in result.matrix]
    report["rows"] = [be.label() for be in result.rows]
    report["cols"] = [be.label() for be in result.cols]
    report["almost_lower_triangular"] = verdict
    report["witness"] = None if witness is None else [[str(v) for v in row] for row in witness]
    path = args.output
    if args.format == "csv":
        lines = [",".join(row) for row in report.pop("matrix")]
        _emit("\n".join(lines) + "\n", path)
        if witness is None:
            del report["witness"]
        path += ".labels.json"
    _json_report(report, path)
    return 0 if verdict else 1


def _is_case(case) -> bool:
    """A known family with params that pass its check."""
    try:
        FAMILIES[case["family"]].check(case["params"])
    except (KeyError, TypeError, ValueError):
        return False
    return True


def _sweep_cases(args: argparse.Namespace) -> list[dict]:
    flags = (args.family is not None) + (args.max_n is not None)
    if flags == 1 or (flags and args.config is not None):
        raise UsageError("sweep takes --family with --max-n, or --config alone")
    if args.max_n is not None and args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read the sweep config: {exc}") from exc
        cases = data.get("cases", []) if isinstance(data, dict) else None
        if not isinstance(cases, list):
            raise UsageError("a sweep config is a JSON object with a list of cases")
        for case in cases:
            if not _is_case(case):
                raise UsageError(f"malformed sweep case: {case!r}")
        return cases
    if args.family is None:
        return []
    row = lookup(FAMILIES, args.family)
    return [
        {"family": args.family, "params": params}
        for n in range(1, args.max_n + 1)
        for params in row.sweep(n)
    ]


def _run_case(case: dict) -> dict:
    """Worker entry point; must stay importable and return JSON-safe data.

    A case that raises is recorded with its error and a false verdict, and
    its traceback goes to stderr, so one bad case does not abort the sweep.
    """
    try:  # uncached: a long sweep must not keep every case's tables alive
        quotient = GradedQuotient(build_ideal(case["family"], **case["params"]))
        body = verify_family(quotient, case["family"], case["params"])
    except Exception as exc:
        import traceback  # only a failing case needs it

        print(f"sweep case {case['family']} {case['params']} raised:", file=sys.stderr)
        traceback.print_exc()
        return {
            "family": case["family"],
            "params": case["params"],
            "verdict": False,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
    return {
        "family": case["family"],
        "params": case["params"],
        "verdict": body["verdict"],
        "dimension": body["dimension"],
        "family_size": body["family_size"],
        "failures": body["failures"],
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    cases = _sweep_cases(args)
    if args.jobs > 1 and len(cases) > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_case, cases))
    else:
        results = [_run_case(case) for case in cases]
    config = {
        "family": args.family,
        "max_n": args.max_n,
        "cases": cases,
    }
    report = _report_skeleton("sweep", config)
    report["results"] = results
    report["total"] = len(results)
    report["passed"] = sum(1 for r in results if r["verdict"])
    report["all_pass"] = report["passed"] == report["total"]
    _json_report(report, args.output)
    return 0 if report["all_pass"] else 1


def cmd_hilbert(args: argparse.Namespace) -> int:
    params = _resolve_params(args.family, args)
    quotient = graded_quotient(args.family, **params)
    report = _report_skeleton("hilbert", {"family": args.family, "params": params})
    report["hilbert"] = list(quotient.hilbert)
    report["dimension"] = quotient.dimension
    report["max_degree"] = quotient.max_degree
    _json_report(report, args.output)
    return 0


def cmd_specht_eval(args: argparse.Namespace) -> int:
    s = parse_tableau(args.s)
    t = parse_tableau(args.t)
    poly = higher_specht(s, t)
    if args.format == "pretty":
        _emit(str(poly) + "\n", args.output)
        return 0
    report = _report_skeleton("specht-eval", {"S": args.s, "T": args.t})
    report["degree"] = poly.degree()
    report["polynomial"] = str(poly)
    report["terms"] = [
        {"exponent": list(e), "coeff": str(c)} for e, c in poly.sorted_terms()
    ]
    _json_report(report, args.output)
    return 0


# -- parser ---------------------------------------------------------------------


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True, help=", ".join(FAMILIES))
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--s", type=int)
    sub.add_argument("--mu", type=parse_partition, help='partition, e.g. "3,3,2"')
    sub.add_argument("--output", help="write the report here instead of stdout")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spechtpoly",
        description="Higher Specht bases of coinvariant-type quotient rings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="check a basis family against its quotient")
    _add_family_flags(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("frobenius", help="graded Frobenius character of a quotient")
    _add_family_flags(p)
    p.add_argument(
        "--compare",
        nargs="?",
        const="formula",
        choices=["formula"],
        help="also evaluate the closed formula and report equality",
    )
    p.set_defaults(func=cmd_frobenius)

    p = subs.add_parser("transition", help="expansion matrix over the recursion family")
    p.add_argument("--mu", type=parse_partition, required=True)
    p.add_argument("--d", type=int, required=True, help="polynomial degree slice")
    p.add_argument("--normalize", choices=["raw", "primitive"], default="raw")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_transition)

    p = subs.add_parser("sweep", help="verify many families in one run")
    p.add_argument("--family", help="family to sweep with --max-n")
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--config", help='JSON file with {"cases": [{family, params}...]}')
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("hilbert", help="Hilbert function of a quotient")
    _add_family_flags(p)
    p.set_defaults(func=cmd_hilbert)

    p = subs.add_parser("specht-eval", help="print a single polynomial F_T^S")
    p.add_argument("--s", required=True, help='tableau, bottom row first, e.g. "1 1 1/2 2"')
    p.add_argument("--t", required=True, help='tableau, bottom row first, e.g. "1 3 5/2 4"')
    p.add_argument("--format", choices=["json", "pretty"], default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_specht_eval)

    return parser


def report_schema() -> dict:
    """The JSON schema every report emitted by this CLI conforms to."""
    from importlib import resources

    with resources.files("spechtpoly.schemas").joinpath("report.schema.json").open(
        encoding="utf-8"
    ) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large to compute", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:  # RuntimeError: the quotient's degree cap
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
