"""Tests of the benchmark itself: oracles, normalization, tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import corpus  # noqa: E402
import kernel  # noqa: E402
import oracle  # noqa: E402
from corpus import Problem  # noqa: E402

ONE = {(0,): 1}


def const(c, v=1):
    return ({(0,) * v: c}, {(0,) * v: 1})


# ---------------------------------------------------------------------------
# oracles

def test_truncated_dims_of_first_order_ode():
    # M = K[d] / (d - t): phi(k) = 1 for every k
    gens = [{(0, (1,)): const(1), (0, (0,)): ({(1,): -1}, ONE)}]
    assert oracle.truncated_dims(gens, 1, 1, 1, 5, (12345,)) == [1] * 6


def test_truncated_dims_of_monomial_module_match_lattice_count():
    # leaders d1^2 and d1*d2^2 over Q with m = 2
    leaders = [[(2, 0), (1, 2)]]
    gens = [{(0, e): const(1, 0)} for e in leaders[0]]
    dims = oracle.truncated_dims(gens, 2, 0, 1, 6, ())
    assert dims == [oracle.lattice_count(leaders, 2, k) for k in range(7)]


def test_series_derivatives_of_rational_function():
    # r = 1/(1 - t) around 0: every Taylor coefficient is 1
    s = oracle.ratfun_series((ONE, {(0,): 1, (1,): -1}), (0,), 6)
    assert s == {(k,): 1 for k in range(7)}


def test_in_span_sees_combinations_and_perturbations():
    g = {(0, (1, 0)): const(1, 0), (0, (0, 1)): const(1, 0)}   # d1 + d2
    mod = oracle.PointModule(2, 0, (), 4)
    combo = mod.apply_theta(g, (1, 1))
    assert oracle.in_span(combo, [g], 2, 0, (), 2)
    combo[(0, 0, (0, 0))] = 1
    assert not oracle.in_span(combo, [g], 2, 0, (), 2)


def test_printed_answers_parse():
    assert oracle.eval_numpoly("1/2*t^2 + 3/2*t + 1", 4) == 15
    op = oracle.eval_operator("(t + 1)/(t^2 - 1/2)*d^2 - 3", 1, (3,))
    inv = pow(17, oracle.P - 2, oracle.P)
    assert op == {(2,): 4 * inv * 2 % oracle.P, (0,): oracle.P - 3}


DIMPOLY = Problem("x.dimpoly", "dimpoly", "field: Q(t)\nmodule: 1\n"
                  "gens: [d^2 - t]\n", "dimpoly", n=1,
                  data={"gens": [{(0, (2,)): const(1),
                                  (0, (0,)): ({(1,): -1}, ONE)}]})
DIMPOLY_OUT = ("dimension polynomial: 2 (valid for t >= 2)\n"
               "differential dimension d = 0\n"
               "type = 0, typical height = 2\n"
               "below-leader count B = 2 (free term r = 2)\n"
               "free components: none\n")


def test_checker_accepts_right_and_rejects_wrong_dimpoly():
    checker = oracle.Checker()
    checker.check(DIMPOLY, DIMPOLY_OUT, {})
    for right, wrong in (("polynomial: 2", "polynomial: 3"),
                         ("polynomial: 2 (valid for t >= 2)",
                          "polynomial: t + 1 (valid for t >= 2)"),
                         ("d = 0", "d = 1"), ("B = 2", "B = 1")):
        with pytest.raises(oracle.OracleError):
            checker.check(DIMPOLY, DIMPOLY_OUT.replace(right, wrong), {})


def test_checker_bounds_torsion_by_below_leader_count():
    dec = Problem("x.decompose", "decompose", DIMPOLY.text, "decompose",
                  n=1, data=DIMPOLY.data)
    answers = {"x.dimpoly": DIMPOLY_OUT}
    checker = oracle.Checker()
    diagonal = "diagonal: ['d^2 - t']\n"
    checker.check(dec, "d = 0, k = 2, torsion degrees [2]\n" + diagonal,
                  answers)
    for bad in ("d = 0, k = 3, torsion degrees [3]\n" + diagonal,
                "d = 1, k = 2, torsion degrees [2]\n" + diagonal,
                "d = 0, k = 2, torsion degrees [1]\n" + diagonal,
                "d = 0, k = 2, torsion degrees [2]\ndiagonal: ['d - t']\n"):
        with pytest.raises(oracle.OracleError):
            checker.check(dec, bad, answers)


def test_checker_counts_staircases_by_enumeration():
    prob = Problem("x.count", "count", "", "count", m=2, v=0,
                   data={"leaders": [[(2, 0), (0, 1)]]})
    oracle.Checker().check(prob, "2 (valid for t >= 3)\n", {})
    with pytest.raises(oracle.OracleError):
        oracle.Checker().check(prob, "3 (valid for t >= 3)\n", {})


def test_a_crashing_call_makes_the_run_incorrect():
    import run
    from worker import run_cli

    def crash(argv):
        raise ZeroDivisionError("boom")

    rc, out = run_cli(crash, DIMPOLY.argv, DIMPOLY.text)
    good = {"name": "x.dimpoly", "rc": 0, "stdout": DIMPOLY_OUT}
    bad = {"name": "x.dimpoly", "rc": rc, "stdout": out}
    warm = run.check_answers([DIMPOLY], [good], {})
    assert run.outcome({"warmup": [good], "passes": [[good], [good]]},
                       warm) == {"correct": True, "attempted": 2,
                                 "failed": 0}
    # one crash in one timed pass fails the run, whatever the ratio
    assert run.outcome({"warmup": [good], "passes": [[good], [bad]]},
                       warm) == {"correct": False, "attempted": 2,
                                 "failed": 1}
    crashed = run.check_answers([DIMPOLY], [bad], {})
    assert crashed["x.dimpoly"].startswith("raised ZeroDivisionError")
    assert not run.outcome({"warmup": [bad], "passes": [[bad]]},
                           crashed)["correct"]


# ---------------------------------------------------------------------------
# normalization

def test_normalize_scales_by_mean_kernel_time():
    # 0.5 s of call, 0.1 s of it sampling, kernel twice the nominal time
    nominal = kernel.NOMINAL_KERNEL_S
    assert kernel.normalize(0.5, 0.1, [nominal, 3 * nominal]) == \
        pytest.approx(0.2)


def test_call_timer_charges_an_over_limit_call_at_the_limit():
    timer = kernel.CallTimer(limit_s=0.05, period_s=0.005)

    def spin():
        while True:
            kernel.kernel()

    result, norm, wall, ref = timer.call(spin)
    assert isinstance(result, kernel.OverLimit)
    assert norm == 0.05 and wall < 5 and ref > 0
    result, norm, _, _ = timer.call(sum, [1, 2])
    assert result == 3 and 0 < norm < 0.05


def test_call_timer_subtracts_sampler_time():
    timer = kernel.CallTimer(limit_s=None, period_s=0.002)

    def busy():
        for _ in range(40):
            kernel.kernel()

    _, norm, wall, ref = timer.call(busy)
    assert timer.sampler_s > 0
    expected = (wall - timer.sampler_s) * kernel.NOMINAL_KERNEL_S / ref
    assert norm == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# tracer

def test_tracer_install_restore_round_trip():
    import diffalg.cli
    import diffalg.diffmodule
    import diffalg.field
    from tracing import OPTIONAL, TARGETS, Tracer
    from worker import run_cli

    before = {(name, attr): value for name, mod in sys.modules.items()
              if name.startswith("diffalg") for attr, value in
              vars(mod).items()}
    mul = diffalg.field.MPoly.__dict__["__mul__"]
    tracer = Tracer(kernel.CallTimer())
    with tracer.installed():
        for modname, path, _ in TARGETS:
            owner = sys.modules[f"diffalg.{modname}"]
            if "." in path:
                clsname, path = path.split(".")
                owner = vars(getattr(owner, clsname))
            else:
                owner = vars(owner)
            if path in OPTIONAL and path not in owner:
                continue
            assert hasattr(owner[path], "__wrapped__"), (modname, path)
        assert diffalg.field.MPoly.__dict__["__mul__"] is not mul
        assert diffalg.cli.nf_reduce is not before[("diffalg.cli",
                                                    "nf_reduce")]
        assert diffalg.cli.nf_reduce.__wrapped__ is \
            diffalg.diffmodule.reduce.__wrapped__
        (rc, out), _, _, ref = tracer.timer.call(
            run_cli, lambda argv: diffalg.cli.main(argv), DIMPOLY.argv,
            DIMPOLY.text)
        tracer.end_problem(ref)
        assert rc == 0 and out == DIMPOLY_OUT
    after = {(name, attr): value for name, mod in sys.modules.items()
             if name.startswith("diffalg") for attr, value in
             vars(mod).items()}
    assert diffalg.field.MPoly.__dict__["__mul__"] is mul
    assert all(after[key] is value for key, value in before.items())
    assert {t[2] for t in TARGETS} >= set(tracer.calls)
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["diffmodule.characteristic_set"] == 1
    assert tracer.self_s["cli.main"] > 0


def test_tracer_refuses_a_missing_target_and_restores(monkeypatch):
    import diffalg.cli
    import diffalg.numpoly
    from tracing import Tracer

    main = diffalg.cli.main
    monkeypatch.delattr(diffalg.numpoly, "count_cofilter")
    with pytest.raises(LookupError, match="count_cofilter"):
        with Tracer(kernel.CallTimer()).installed():
            pass
    assert diffalg.cli.main is main


def test_tracer_charges_counter_work_to_no_layer(monkeypatch):
    import time

    import tracing

    monkeypatch.setitem(tracing._OBSERVERS, "inner",
                        lambda tracer, args, result: time.sleep(0.05))
    tracer = tracing.Tracer(kernel.CallTimer())
    inner = tracer._wrap(lambda: None, "inner")
    outer = tracer._wrap(lambda: inner(), "outer")
    start = time.perf_counter()
    outer()
    assert time.perf_counter() - start >= 0.05
    assert tracer._raw["outer"] < 0.01 and tracer._raw["inner"] < 0.01


def test_corpus_problems_parse_and_are_seeded():
    from diffalg.parsing import parse_input
    for name, make in corpus.WORKLOADS.items():
        first, again = make(5), make(5)
        assert [p.text for p in first] == [p.text for p in again]
        for prob in first[:40]:
            parse_input(prob.text)
    torsion = [p for p in corpus.ode_torsion(1) if p.kind == "dimpoly"]
    assert len(torsion) == 100
