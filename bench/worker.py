"""One benchmark session in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json

Imports ``spechtpoly.cli``, prints ``ready`` (the parent times set-up up
to that line), then runs the spec's jobs in order through
``spechtpoly.cli.main(argv)`` in this one process, so the quotient cache
and ``lru_cache`` state carry over from job to job as in an API session.
Prints one JSON line: per job the exit code, captured stdout and stderr
and seconds; the session's wall time and peak RSS; and, when the spec
asks for a trace, the per-layer figures.

Only ``sys`` is imported before ``spechtpoly.cli``, so the set-up the
parent measures is interpreter start plus that import, as a CLI user
pays it.
"""

import sys


def main() -> None:
    import spechtpoly.cli as cli

    print("ready", flush=True)

    import contextlib
    import io
    import json
    import platform
    import resource
    import time
    import traceback

    def run_job(argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, not a failed session
            rc = None
            err.write(traceback.format_exc())
        return {
            "rc": rc,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-4000:],
            "seconds": time.perf_counter() - start,
        }

    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        jobs = [run_job(argv) for argv in spec["jobs"]]
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    qq = sys.modules["spechtpoly"].QQ
    result = {
        "jobs": jobs,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024,
        "backend": f"{qq.__module__}.{getattr(qq, '__qualname__', qq.__name__)}",
        "python": platform.python_version(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
