"""Acceptance suite: one pass/fail line per criterion.

Each test exercises one end-to-end guarantee against independent oracles
(closed-form operator products, brute-force staircase counts, truncated
Gaussian elimination) and enforces a wall-clock budget.  Results are
printed even under pytest's output capture.
"""

import importlib
import random
import re
import time
from pathlib import Path

import pytest

from diffalg import (Antichain, DiffFieldConfig, OreMatrix, RatFun,
                     TangentClass, VarietyPoint, characteristic_set,
                     classify_presentation, count_cofilter, diagonalize,
                     dimension_report, eval_diffpoly, leader_antichain,
                     linearize_at_point, ore_divmod, ore_mul,
                     orderly_ranking, tangent_pipeline, type_and_heights)
from diffalg.parsing import parse_diffpoly, parse_ratfun
from helpers import (brute_count, ore_mul_binomial, rand_modelement,
                     rand_orepoly, truncated_module_dims)

CFG1 = DiffFieldConfig(1, 1)


def _report(capsys, label, budget, started):
    elapsed = time.monotonic() - started
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"{label} exceeded its {budget}s budget"


def _worked_example():
    eq = parse_diffpoly("z*y' - y", CFG1, ["z", "y"])
    generic = VarietyPoint(CFG1, [parse_ratfun("t", CFG1)] * 2)
    constant = VarietyPoint(CFG1, [parse_ratfun("1", CFG1),
                                   parse_ratfun("0", CFG1)])
    return eq, generic, constant


def test_worked_example_tangent_classification(capsys):
    started = time.monotonic()
    eq, generic, constant = _worked_example()
    T = RatFun.var(1, 0)

    for x in (generic, constant):
        assert not eval_diffpoly(eq, x)

    w = linearize_at_point(eq, generic)
    assert dict(w.terms) == {(0, (0,)): RatFun.from_const(1, 1),
                             (1, (1,)): T,
                             (1, (0,)): RatFun.from_const(1, -1)}
    w = linearize_at_point(eq, constant)
    assert dict(w.terms) == {(1, (1,)): RatFun.from_const(1, 1),
                             (1, (0,)): RatFun.from_const(1, -1)}

    _, report, tc = tangent_pipeline([eq], generic)
    assert str(report.dimpoly) == "t + 2" and report.diff_dimension == 1
    assert tc == TangentClass(1, 0, ())

    _, report, tc = tangent_pipeline([eq], constant)
    assert str(report.dimpoly) == "t + 2" and report.diff_dimension == 1
    assert tc == TangentClass(1, 1, (1,))

    _report(capsys, "worked-example tangent classification", 1, started)


def test_worked_example_dimension_polynomial_vs_truncations(capsys):
    started = time.monotonic()
    eq, generic, constant = _worked_example()
    for x in (generic, constant):
        gens = [linearize_at_point(eq, x)]
        _, report, _ = tangent_pipeline([eq], x)
        dims = truncated_module_dims(gens, 2, CFG1, 8)
        assert dims == [report.dimpoly(k) for k in range(9)]
    _report(capsys, "dimension polynomial matches order-by-order truncations",
            10, started)


def test_torsion_bounds_on_random_presentations(capsys):
    started = time.monotonic()
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randint(1, 3)
        gens = [rand_modelement(rng, CFG1, n, max_ord=3, nonzero=True,
                                frac_prob=0.05, coeff_deg=1)
                for _ in range(rng.randint(1, 3))]
        cs = characteristic_set(gens, orderly_ranking(n), config=CFG1, n=n)
        report = dimension_report(cs)
        tc, _ = classify_presentation(CFG1, gens, n)
        assert tc.d == report.diff_dimension
        assert tc.k <= report.free_term
        assert tc.k <= report.below_leader_count
    _report(capsys, "torsion bounds k <= r and k <= B on 100 presentations",
            60, started)


def _rand_antichain(rng, m):
    comps = []
    for _ in range(rng.randint(1, 3)):
        vectors = {tuple(rng.randint(0, 4) for _ in range(m))
                   for _ in range(rng.randint(0, 4))}
        minimal = {v for v in vectors
                   if not any(w != v and all(a <= b for a, b in zip(w, v))
                              for w in vectors)}
        comps.append(frozenset(minimal))
    return Antichain(m, tuple(comps))


def test_staircase_counts_match_brute_force(capsys):
    started = time.monotonic()
    rng = random.Random(72)
    for trial in range(200):
        m = 1 + trial % 3
        anti = _rand_antichain(rng, m)
        phi = count_cofilter(anti)
        for t in range(phi.valid_from, phi.valid_from + 7):
            assert phi(t) == brute_count(anti, t)
    _report(capsys, "staircase counts match 200 brute enumerations",
            30, started)


def test_characteristic_set_dimensions_match_gaussian_elimination(capsys):
    started = time.monotonic()
    rng = random.Random(73)
    cases = [(CFG1, 100, 3), (DiffFieldConfig(2, 1), 30, 2)]
    for config, trials, max_ord in cases:
        for _ in range(trials):
            n = rng.randint(1, 2)
            gens = [rand_modelement(rng, config, n, max_ord=max_ord,
                                    max_terms=2, nonzero=True,
                                    frac_prob=0.0, coeff_deg=1)
                    for _ in range(rng.randint(1, 2))]
            cs = characteristic_set(gens, orderly_ranking(n),
                                    config=config, n=n)
            anti = leader_antichain(cs)
            dims = truncated_module_dims(gens, n, config, 6)
            assert [brute_count(anti, k) for k in range(7)] == dims
    _report(capsys, "charset staircases match truncated Gaussian elimination "
                    "(100 ordinary + 30 partial instances)", 120, started)


def test_operator_ring_laws_division_and_diagonalization(capsys):
    started = time.monotonic()
    rng = random.Random(74)

    configs = [CFG1, DiffFieldConfig(2, 2)]
    for trial in range(500):
        config = configs[trial % 2]
        f = rand_orepoly(rng, config, max_deg=2, coeff_deg=1)
        g = rand_orepoly(rng, config, max_deg=2, coeff_deg=1)
        h = rand_orepoly(rng, config, max_deg=1, coeff_deg=1)
        fg = ore_mul(f, g)
        assert fg == ore_mul_binomial(f, g)
        assert ore_mul(fg, h) == ore_mul(f, ore_mul(g, h))
        assert ore_mul(f + g, h) == ore_mul(f, h) + ore_mul(g, h)

    for _ in range(200):
        f = rand_orepoly(rng, CFG1, max_deg=3, coeff_deg=1)
        g = rand_orepoly(rng, CFG1, max_deg=2, coeff_deg=1, nonzero=True)
        for side in ("right", "left"):
            q, r = ore_divmod(f, g, side=side)
            back = ore_mul(q, g) if side == "right" else ore_mul(g, q)
            assert back + r == f
            assert r.degree() < g.degree()

    for _ in range(8):
        rows, cols = rng.randint(1, 2), rng.randint(1, 3)
        A = OreMatrix(CFG1, [[rand_orepoly(rng, CFG1, max_deg=2,
                                           frac_prob=0.05, coeff_deg=1)
                              for _ in range(cols)] for _ in range(rows)])
        res = diagonalize(A)  # re-multiplication U*A*V == D checked inside
        assert res.D.is_diagonal()

    _report(capsys, "operator laws (500 triples), division (200 pairs), "
                    "verified diagonalizations", 60, started)


def test_dimension_polynomials_are_kolchin_integral(capsys):
    started = time.monotonic()
    rng = random.Random(75)
    seen = 0
    for m in (1, 2, 3):
        for _ in range(30):
            phi = count_cofilter(_rand_antichain(rng, m))
            assert all(isinstance(c, int) for c in phi.coeffs)
            if not phi.is_zero():
                typ, _, _ = type_and_heights(phi, m)
                assert 0 <= typ <= m
            seen += 1
    for _ in range(20):
        n = rng.randint(1, 3)
        gens = [rand_modelement(rng, CFG1, n, max_ord=2, nonzero=True,
                                frac_prob=0.0, coeff_deg=1)
                for _ in range(rng.randint(1, 2))]
        cs = characteristic_set(gens, orderly_ranking(n), config=CFG1, n=n)
        phi = dimension_report(cs).dimpoly
        assert all(isinstance(c, int) for c in phi.coeffs)
        if not phi.is_zero():
            typ, _, _ = type_and_heights(phi, 1)
            assert 0 <= typ <= 1
        seen += 1
    assert seen >= 100
    _report(capsys, "binomial-basis coefficients integral, type <= m", 30,
            started)


README = Path(__file__).resolve().parent.parent / "README.md"

# "`diffalg.<module>.<NAME>` = <value>", the value a numeral that may have
# thousands commas (2,500) or be a power (2^21)
QUOTED_CONSTANT = re.compile(
    r"`diffalg\.(\w+)\.(\w+)`\s*=\s*(\d+(?:,\d{3})*)(?:\^(\d+))?")


def test_scope_limitations_documented(capsys):
    started = time.monotonic()
    text = README.read_text(encoding="utf-8")
    assert "## Scope and limitations" in text
    assert "nonlinear" in text.lower()
    _report(capsys, "out-of-scope behavior documented", 5, started)


def test_readme_constants_match_the_code(capsys):
    started = time.monotonic()
    quoted = QUOTED_CONSTANT.findall(README.read_text(encoding="utf-8"))
    assert quoted
    for module, name, base, exponent in quoted:
        value = int(base.replace(",", "")) ** int(exponent or 1)
        module = importlib.import_module(f"diffalg.{module}")
        assert hasattr(module, name), f"README quotes missing {name}"
        assert getattr(module, name) == value, \
            f"README quotes {name} = {value}, not {getattr(module, name)}"
    # and the other way: every cap of the modules that read input is quoted
    named = {(module, name) for module, name, _, _ in quoted}
    for module in ("parsing", "field", "cli", "variety"):
        for name in vars(importlib.import_module(f"diffalg.{module}")):
            if name.startswith("MAX_"):
                assert (module, name) in named, \
                    f"README does not quote diffalg.{module}.{name}"
    _report(capsys, f"{len(quoted)} constants quoted in README.md match the "
            f"code", 5, started)
