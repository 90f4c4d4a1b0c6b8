"""Benchmark for diffalg: seeded workloads through the CLI, end to end.

    python3 bench/run.py --workload ode-torsion --seed 71 --seconds 20 \
        --trace 0

Each problem reaches the library as problem text through
`diffalg.cli.main(argv)` in a worker process: a closed loop with one
caller, one call after another on one thread.  The worker runs an untimed
warm-up pass and then a fixed number of timed passes over a fixed corpus;
every call is timed in normalized seconds (see kernel.py).  Answers are
checked here, in the parent, by oracles that do not import diffalg, so the
worker's peak memory holds no oracle state.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 the worker adds one traced pass and the
object holds the per-layer metrics and the named rows.  A copy of the
full results goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import oracle  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# Per-problem limit in normalized seconds.  Every corpus call takes under
# 1.6 s and every named row over 6 s, so the set of over-limit calls cannot
# flip with run-to-run noise.
LIMIT_S = 3.0

# Calls that pass the limit at this version of the library.  They are kept
# out of the timed passes, so that the gated workloads have no failing
# operation, and run once in every traced run as named rows with their
# status and time.
NAMED_ROWS = {
    "ode-torsion": ("torsion31.decompose", "torsion33.decompose",
                    "torsion80.decompose"),
    "pde-charset": ("pde31.dimpoly", "pde31.reduce", "pde80.dimpoly",
                    "pde81.dimpoly", "pde98.dimpoly", "pde114.dimpoly",
                    "pde135.dimpoly", "pde135.reduce"),
    "staircase": (),
}

# Nominal normalized seconds of one pass; --seconds / this gives the fixed
# number of timed passes, so both sides of a comparison measure the same
# sample whatever the machine's speed.
PASS_S = {"ode-torsion": 10.5, "pde-charset": 3.3, "staircase": 6.1}

SETUP_SPAWNS = 15
WORKER_TIMEOUT_S = 150

# Only sys and time are loaded when the import is timed, so every module
# diffalg.cli pulls in (json, fractions, ...) counts; the kernel is sampled
# right after the import.
SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
start = time.perf_counter()
import diffalg.cli
wall = time.perf_counter() - start
from kernel import normalize, time_kernel
samples = [time_kernel() for _ in range(11)][1:]
print(normalize(wall, 0.0, samples))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=71)
    parser.add_argument("--seconds", type=int, default=20,
                        help="nominal timed seconds; sets the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (default bench/results/...)")
    return parser.parse_args(argv)


def measure_setup(spawns=SETUP_SPAWNS):
    """Median normalized time of `import diffalg.cli` in fresh interpreters."""
    code = SETUP_CHILD.format(src=str(ROOT / "src"), bench=str(BENCH))
    samples = []
    for i in range(spawns + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        if i:                       # the first spawn may write bytecode
            samples.append(float(done.stdout))
    return statistics.median(samples), samples


def run_worker(job):
    # a fixed hash seed keeps set and dict layouts, and so the work, the
    # same from run to run
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          env=env)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker failed with exit code {done.returncode}")
    return json.loads(done.stdout)


def check_answers(problems, rows, answers):
    """Per-problem failure reason, or None; checks outside the timed region."""
    checker = oracle.Checker()
    verdict = {}
    for prob, row in zip(problems, rows):
        if row["rc"] != 0:
            verdict[prob.name] = str(row["rc"])
            continue
        try:
            checker.check(prob, row["stdout"], answers)
            verdict[prob.name] = None
        except oracle.OracleError as exc:
            verdict[prob.name] = f"wrong answer: {exc}"
    return verdict


def outcome(report, verdict):
    """Result counts over the timed passes.

    A call fails when it raised, exited nonzero, passed the limit, answered
    wrong or printed other output than in the warm-up pass; the workloads
    have no failing call at this version, so any failure makes the run
    incorrect.
    """
    first = {row["name"]: row["stdout"] for row in report["warmup"]}
    attempted = failed = 0
    for rows in report["passes"]:
        for row in rows:
            attempted += 1
            failed += (verdict[row["name"]] is not None or row["rc"] != 0
                       or row["stdout"] != first[row["name"]])
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed}


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "diffalg" / "cli.py").is_file():
        print(f"error: no diffalg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    problems = corpus.WORKLOADS[args.workload](args.seed)
    named = set(NAMED_ROWS[args.workload])
    timed = [p for p in problems if p.name not in named]
    random.Random(args.seed).shuffle(timed)
    passes = max(1, round(args.seconds / PASS_S[args.workload]))
    if args.trace:
        passes = 1      # the untraced reference pass for trace.overhead

    def as_job(probs):
        return [{"name": p.name, "argv": p.argv, "text": p.text}
                for p in probs]

    setup_s, setup_samples = (None, []) if args.trace else measure_setup()
    report = run_worker({
        "problems": as_job(timed), "passes": passes, "limit_s": LIMIT_S,
        "trace": args.trace,
        "named": as_job(p for p in problems if p.name in named)})

    answers = {row["name"]: row["stdout"] for row in report["warmup"]}
    verdict = check_answers(timed, report["warmup"], answers)
    result = outcome(report, verdict)
    failed, attempted = result["failed"], result["attempted"]
    totals = [sum(r["norm_s"] for r in rows) for rows in report["passes"]]
    walls = [sum(r["wall_s"] for r in rows) for rows in report["passes"]]
    pooled = [r["norm_s"] for rows in report["passes"] for r in rows]
    refs = [r["ref_s"] for rows in report["passes"] for r in rows]

    diagnostics = {
        "corpus_wall_s": statistics.median(walls),
        "ref_s": statistics.median(refs),
        "fail_ratio": failed / attempted,
        "passes": passes, "calls_per_pass": len(timed),
        "problem_s.samples": len(pooled),
        "corpus_s.per_pass": totals,
    }
    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        named_probs = [p for p in problems if p.name in named]
        named_verdict = check_answers(named_probs, report["named"], answers)
        diagnostics["named_rows"] = [
            {"name": r["name"], "status": named_verdict[r["name"]] or "ok",
             "time_s": r["norm_s"]} for r in report["named"]]
    else:
        metrics = {
            "corpus_s": {"value": statistics.median(totals), "unit": "s"},
            "problem_s.p50": {"value": statistics.median(pooled),
                              "unit": "s"},
            "problem_s.p90": {"value": percentile(pooled, 90), "unit": "s"},
            "pass_ratio": {"value": 1 - failed / attempted,
                           "unit": "ratio"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        diagnostics["setup_s.samples"] = setup_samples

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    for name in ("corpus_wall_s", "ref_s", "fail_ratio",
                 "problem_s.samples"):
        print(f"{name:40s} {diagnostics[name]:.6g}  (diagnostic)")
    for row in diagnostics.get("named_rows", ()):
        print(f"named row {row['name']:30s} {row['status']:10s} "
              f"{row['time_s']:.4g} s")
    for name, reason in sorted(verdict.items()):
        if reason:
            print(f"FAILED {name}: {reason}", file=sys.stderr)

    result["metrics"] = metrics
    out = args.out or (BENCH / "results" /
                       f"{args.workload}-seed{args.seed}-trace{args.trace}"
                       ".json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**result, "workload": args.workload,
                               "seed": args.seed, "diagnostics": diagnostics},
                              indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
