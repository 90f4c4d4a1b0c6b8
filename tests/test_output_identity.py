"""CLI output identity on the benchmark corpora.

Every timed call of the three benchmark workloads (seed 71; the named rows
of `bench/run.py` are left out, as in the timed passes) runs through
`diffalg.cli.main` in this process, and a sha256 over its (name, exit code,
stdout) rows must equal the digest recorded for the workload.  A fourth
digest pins the ode-torsion named rows, the heaviest diagonalizations of
that corpus.  A fifth pins `charset`, `dimpoly` and `tangent`, each with and
without `--ranking elim`, on every ode-torsion tangent text: the three
commands that start from equations and a point.  Two more sets pin every
timed call of each workload again, once with `--ranking elim` appended
(no workload ranks by elimination) and once with `--format json`.

A change that means to alter the output records the new digests and says
why in CHANGES.md.  Run as a script, this file prints the current (calls,
digest) of every pinned set:

    python tests/test_output_identity.py

With PYTHONPATH naming another checkout's `src`, it prints the digests of
that checkout's library (say, the parent commit's: the ones to record for
a new set) on this checkout's corpora.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# diffalg is imported first, from PYTHONPATH if that names it and else from
# this checkout: bench/worker.py puts this checkout's src first on the path
sys.path.append(str(ROOT / "src"))
import diffalg.cli  # noqa: E402

BENCH = ROOT / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run as bench_run  # noqa: E402
from worker import run_cli  # noqa: E402

SEED = 71


def _digest(rows):
    """(calls, sha256) over the (name, exit code, stdout) of each
    (name, argv, text) row run through the CLI."""
    digest = hashlib.sha256()
    calls = 0
    for name, argv, text in rows:
        rc, stdout = run_cli(diffalg.cli.main, argv, text)
        digest.update(json.dumps([name, rc, stdout]).encode() + b"\n")
        calls += 1
    return calls, digest.hexdigest()


def _timed_rows(workload, extra=()):
    named = set(bench_run.NAMED_ROWS[workload])
    return [(p.name, [*p.argv, *extra], p.text)
            for p in corpus.WORKLOADS[workload](SEED) if p.name not in named]


# The three named ode-torsion rows, in corpus order.
NAMED_DECOMPOSITIONS = ("torsion31.decompose", "torsion33.decompose",
                        "torsion80.decompose")


def _named_rows():
    return [(p.name, p.argv, p.text)
            for p in corpus.WORKLOADS["ode-torsion"](SEED)
            if p.name in NAMED_DECOMPOSITIONS]


def _equation_rows():
    rows = []
    for p in corpus.WORKLOADS["ode-torsion"](SEED):
        if p.command != "tangent":
            continue
        for command in ("charset", "dimpoly", "tangent"):
            for extra in ((), ("--ranking", "elim")):
                rows.append((" ".join((p.name, command, *extra)),
                             [command, "-", *extra], p.text))
    return rows


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
    assert _digest(_timed_rows(workload)) == DIGESTS[workload]


# Recorded at commit 4a18f98.
NAMED_DIGEST = (3, "d234e6b50ff49fa6295a4511805ef1a0"
                   "2a20553c818e306a43d7c7766a1a4393")


def test_named_diagonalizations_output_is_unchanged():
    assert _digest(_named_rows()) == NAMED_DIGEST


# Recorded at commit 75be6db.
EQUATION_DIGEST = (144, "1b5e2cf3cd5a3d9dfee516156925bc87"
                          "faee71e6a8f8cac34567d4751259bb5c")


def test_equation_commands_output_is_unchanged():
    assert _digest(_equation_rows()) == EQUATION_DIGEST


# Recorded at commit c294d0f, each set over the timed calls of a workload
# with the options of its key appended.
VARIANT_DIGESTS = {
    ("--ranking", "elim"): {
        "ode-torsion": (221, "8c20a757e25e59fa5ba3a9fd01e70e87"
                             "81095a08b3d2400ab5bfb421ad46e120"),
        "pde-charset": (192, "39cc04271a28f7b3216b3f244960ef99"
                             "74b923d9f183070c7af7e903ee0b3888"),
        "staircase": (36, "08d179f0566e9d93a689d10eaa5d3503"
                          "4234ae04b11a2398986822d6ac9a9531"),
    },
    ("--format", "json"): {
        "ode-torsion": (221, "68387cbed51ac86b4fce15a05e5bfd02"
                             "4fedc937c82b02831b0962253db3e04c"),
        "pde-charset": (192, "a0074f9f72195e72ee1a8aeabf136f92"
                             "f86f6b65b28b64df5097b338e072e511"),
        "staircase": (36, "d4b26a8ff047bdf0b95aa164d75e41e4"
                          "6a12ed2ad4fa7468a78051ed524fa3fa"),
    },
}


@pytest.mark.parametrize("extra,workload", [
    pytest.param(extra, workload, id=f"{workload} {' '.join(extra)}")
    for extra, digests in VARIANT_DIGESTS.items() for workload in digests])
def test_timed_corpus_variant_output_is_unchanged(extra, workload):
    assert _digest(_timed_rows(workload, extra)) \
        == VARIANT_DIGESTS[extra][workload]


if __name__ == "__main__":
    print(f"diffalg from {Path(diffalg.cli.__file__).parent}")
    pinned = {**{w: _timed_rows(w) for w in DIGESTS},
              "ode-torsion named": _named_rows(),
              "ode-torsion equations": _equation_rows(),
              **{f"{w} {' '.join(extra)}": _timed_rows(w, extra)
                 for extra, digests in VARIANT_DIGESTS.items()
                 for w in digests}}
    for name, rows in pinned.items():
        calls, digest = _digest(rows)
        print(f"{name}: ({calls}, \"{digest[:32]}\"\n"
              f"{' ' * (len(name) + 3)}\"{digest[32:]}\")")
