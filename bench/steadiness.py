"""Repeat the benchmark over seeds and record how much each metric spreads.

    python3 bench/steadiness.py [--workload ode-torsion ...]

For every workload: RUNS runs with seeds 1..RUNS, each end-to-end
metric's spread as (Q3 - Q1) / median over those runs (quartiles as
statistics.quantiles(values, n=4) gives them), every run's values and its
ref_s, then one traced run with the per-layer metrics.  Writes
bench/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402

RUNS = 10


def run(workload, seed, trace):
    out = BENCH / "results" / f"steadiness-{workload}-{seed}-{trace}.json"
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--trace", str(trace),
                    "--out", str(out)], check=True, capture_output=True,
                   cwd=BENCH.parent)
    return json.loads(out.read_text())


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(corpus.WORKLOADS))
    args = parser.parse_args()
    path = BENCH / "steadiness.json"
    evidence = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or sorted(corpus.WORKLOADS):
        runs = []
        for seed in range(1, RUNS + 1):
            res = run(workload, seed, 0)
            runs.append({"seed": seed, "ref_s": res["diagnostics"]["ref_s"],
                         "corpus_wall_s":
                             res["diagnostics"]["corpus_wall_s"],
                         "correct": res["correct"], "failed": res["failed"],
                         **{k: v["value"] for k, v in res["metrics"].items()}})
            print(workload, runs[-1], flush=True)
        names = [k for k in runs[0] if k not in ("seed", "correct", "failed")]
        traced = run(workload, 1, 1)
        evidence[workload] = {
            "spread": {k: spread([r[k] for r in runs]) for k in names},
            "median": {k: statistics.median(r[k] for r in runs)
                       for k in names},
            "runs": runs,
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
            "named_rows": traced["diagnostics"].get("named_rows", []),
        }
        print(workload, json.dumps(evidence[workload]["spread"]), flush=True)
        path.write_text(json.dumps(evidence, indent=1) + "\n")


if __name__ == "__main__":
    main()
