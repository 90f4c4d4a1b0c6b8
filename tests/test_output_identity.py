"""CLI output identity on the benchmark corpora.

Every timed call of the three benchmark workloads (seed 71; the named rows
of `bench/run.py` are left out, as in the timed passes) runs through
`diffalg.cli.main` in this process, and a sha256 over its (name, exit code,
stdout) rows must equal the digest recorded for the workload.  A change
that means to alter the output records the new digests and says why in
CHANGES.md.  A fourth digest pins the ode-torsion named rows, the heaviest
diagonalizations of that corpus.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run as bench_run  # noqa: E402
from worker import run_cli  # noqa: E402

import diffalg.cli  # noqa: E402

SEED = 71

# Recorded at commit c11516d.
DIGESTS = {
    "ode-torsion": (221, "af7203f67f341845421f03e1aecda9ab"
                         "135f31b9831387ec12b152359859d39a"),
    "pde-charset": (192, "d8d50186f281dc446159703e7f32deb6"
                         "6306ab7397793f791a72721308a585f9"),
    "staircase": (36, "08d179f0566e9d93a689d10eaa5d3503"
                      "4234ae04b11a2398986822d6ac9a9531"),
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_timed_corpus_output_is_unchanged(workload):
    named = set(bench_run.NAMED_ROWS[workload])
    digest = hashlib.sha256()
    calls = 0
    for problem in corpus.WORKLOADS[workload](SEED):
        if problem.name in named:
            continue
        rc, stdout = run_cli(diffalg.cli.main, problem.argv, problem.text)
        digest.update(json.dumps([problem.name, rc, stdout]).encode() + b"\n")
        calls += 1
    assert (calls, digest.hexdigest()) == DIGESTS[workload]


# The three named ode-torsion rows, in corpus order; recorded at commit
# 4a18f98.
NAMED_DECOMPOSITIONS = ("torsion31.decompose", "torsion33.decompose",
                        "torsion80.decompose")
NAMED_DIGEST = (3, "d234e6b50ff49fa6295a4511805ef1a0"
                   "2a20553c818e306a43d7c7766a1a4393")


def test_named_diagonalizations_output_is_unchanged():
    digest = hashlib.sha256()
    calls = 0
    for problem in corpus.WORKLOADS["ode-torsion"](SEED):
        if problem.name not in NAMED_DECOMPOSITIONS:
            continue
        rc, stdout = run_cli(diffalg.cli.main, problem.argv, problem.text)
        digest.update(json.dumps([problem.name, rc, stdout]).encode() + b"\n")
        calls += 1
    assert (calls, digest.hexdigest()) == NAMED_DIGEST
