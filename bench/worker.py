"""Timed passes over a corpus, in a process that holds no oracle state.

Reads a JSON job on stdin, runs every problem through diffalg.cli.main in
this process, one call after another on one thread, and writes a JSON
report on stdout.  Run by run.py; not meant to be started by hand.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from kernel import CallTimer, OverLimit  # noqa: E402


def run_cli(main, argv, text):
    """One CLI call on in-memory stdin; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed call, not ours
                rc = f"raised {type(exc).__name__}: {exc}"[:300]
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def run_pass(main, problems, timer, tracer=None):
    # the harness's own objects (job, earlier passes' rows) move to the
    # permanent generation, so every pass's collections scan the same heap
    gc.collect()
    gc.freeze()
    rows = []
    for prob in problems:
        result, norm, wall, ref = timer.call(run_cli, main, prob["argv"],
                                             prob["text"])
        if tracer is not None:
            tracer.end_problem(ref)
        if isinstance(result, OverLimit):
            rc, stdout = "over_limit", ""
        else:
            rc, stdout = result
        rows.append({"name": prob["name"], "rc": rc, "norm_s": norm,
                     "wall_s": wall, "ref_s": ref, "stdout": stdout})
    return rows


def main():
    job = json.load(sys.stdin)
    import diffalg.cli

    def cli_main(argv):
        return diffalg.cli.main(argv)   # looked up per call, so traceable

    timer = CallTimer(limit_s=job["limit_s"])
    problems = job["problems"]
    report = {"warmup": run_pass(cli_main, problems, timer), "passes": []}
    for _ in range(job["passes"]):
        report["passes"].append(run_pass(cli_main, problems, timer))
    if job["trace"]:
        from tracing import Tracer
        # tracing slows calls several times over; the limit only has to
        # stop a runaway call here, not decide failures
        traced_timer = CallTimer(limit_s=job["limit_s"] * 10)
        tracer = Tracer(traced_timer)
        with tracer.installed():
            traced = run_pass(cli_main, problems, traced_timer, tracer)
        untraced = sum(r["norm_s"] for r in report["passes"][-1])
        report["layers"] = tracer.summary(sum(r["norm_s"] for r in traced),
                                          untraced)
        report["named"] = run_pass(cli_main, job["named"], timer)
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # sys.__stdout__: a call stopped at the limit may leave sys.stdout
    # redirected
    json.dump(report, sys.__stdout__)


if __name__ == "__main__":
    main()
