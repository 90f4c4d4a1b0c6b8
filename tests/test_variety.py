"""Differential polynomials, evaluation at points, and linearization."""

import random

import pytest

import diffalg.normalform
from diffalg import (Diagonalization, DiffAlgError, DiffFieldConfig, DiffPoly,
                     ModElement, OreMatrix, OrePoly, PointNotOnVariety, RatFun,
                     TangentClass, VarietyPoint, eval_diffpoly,
                     linearize_at_point, linearize_system, ore_mul,
                     tangent_pipeline)
from diffalg.parsing import parse_diffpoly, parse_ratfun
from helpers import formal_derive

CFG1 = DiffFieldConfig(1, 1)
T = RatFun.var(1, 0)


def dp(text, names=("z", "y")):
    return parse_diffpoly(text, CFG1, list(names))


def point(*coords):
    return VarietyPoint(CFG1, [parse_ratfun(c, CFG1) if isinstance(c, str)
                               else c for c in coords])


def linear_elem(n, terms):
    return ModElement(CFG1, n, terms)


class TestEval:
    def test_worked_equation_at_generic_point(self):
        assert not eval_diffpoly(dp("z*y' - y"), point("t", "t"))

    def test_worked_equation_at_constant_point(self):
        assert not eval_diffpoly(dp("z*y' - y"), point("1", "0"))

    def test_nonvanishing_value(self):
        assert eval_diffpoly(dp("z*y' - y"), point("t", "1")) == \
            RatFun.from_const(1, -1)

    def test_higher_derivative_and_power(self):
        # y = t^2: (y')^2 - 4*y = 0, y'' = 2
        f = dp("y'*y' - 4*y")
        assert not eval_diffpoly(f, point("0", "t^2"))
        g = dp("y''")
        assert eval_diffpoly(g, point("0", "t^2")) == RatFun.from_const(1, 2)

    def test_rational_coordinate(self):
        # y = 1/t satisfies t*y' + y = 0
        f = dp("t*y' + y")
        assert not eval_diffpoly(f, point("0", "1/t"))

    def test_evaluation_is_a_ring_homomorphism(self):
        rng = random.Random(81)
        x = point("t^2", "1/t")
        for _ in range(10):
            f = _rand_diffpoly(rng)
            g = _rand_diffpoly(rng)
            assert eval_diffpoly(f * g, x) == \
                eval_diffpoly(f, x) * eval_diffpoly(g, x)
            assert eval_diffpoly(f + g, x) == \
                eval_diffpoly(f, x) + eval_diffpoly(g, x)


class TestFormalDerive:
    def test_product_rule_on_worked_equation(self):
        assert formal_derive(dp("z*y' - y"), 0) == dp("z'*y' + z*y'' - y'")

    def test_coefficient_only(self):
        assert formal_derive(dp("t^2"), 0) == dp("2*t")

    def test_single_indeterminate(self):
        assert formal_derive(dp("y"), 0) == dp("y'")

    def test_power_of_indeterminate(self):
        assert formal_derive(dp("y*y"), 0) == dp("2*y*y'")

    def test_commutes_with_evaluation(self):
        # eval(delta f, x) == delta(eval(f, x)) for every point
        rng = random.Random(82)
        x = point("t", "t^2 + 1")
        for _ in range(10):
            f = _rand_diffpoly(rng)
            assert eval_diffpoly(formal_derive(f, 0), x) == \
                eval_diffpoly(f, x).derive(0)


class TestLinearize:
    def test_worked_equation_generic_point(self):
        w = linearize_at_point(dp("z*y' - y"), point("t", "t"))
        # e_z + t*(d e_y) - e_y
        assert w == linear_elem(2, {(0, (0,)): 1, (1, (1,)): T,
                                    (1, (0,)): -1})

    def test_worked_equation_constant_point(self):
        w = linearize_at_point(dp("z*y' - y"), point("1", "0"))
        assert w == linear_elem(2, {(1, (1,)): 1, (1, (0,)): -1})

    def test_linear_equation_recovers_itself(self):
        # linearizing an already-linear vanishing equation gives the same
        # operator row regardless of the point
        f = dp("y' - y")
        for x in (point("0", "0"),):
            w = linearize_at_point(f, x)
            assert w == linear_elem(2, {(1, (1,)): 1, (1, (0,)): -1})

    def test_chain_rule_at_vanishing_points(self):
        # when f(x) = 0, linearize(delta f, x) = delta . linearize(f, x)
        delta = OrePoly.delta(CFG1, 0)
        cases = [(dp("z*y' - y"), point("t", "t")),
                 (dp("z*y' - y"), point("1", "0")),
                 (dp("y'*y' - 4*y"), point("0", "t^2"))]
        for f, x in cases:
            assert not eval_diffpoly(f, x)
            lhs = linearize_at_point(formal_derive(f, 0), x)
            rhs = linearize_at_point(f, x).apply_theta((1,))
            assert lhs == rhs
            # apply_theta agrees with left multiplication by delta
            ops = linearize_at_point(f, x).operator_vector()
            assert rhs.operator_vector() == [ore_mul(delta, e) for e in ops]


class TestLinearizeSystem:
    def test_one_differential_per_equation(self):
        eqs = [dp("z - y'"), dp("y'' - 2")]
        x = point("2*t", "t^2")
        assert linearize_system(eqs, x) == [linearize_at_point(f, x)
                                            for f in eqs]


class TestTangentPipeline:
    def test_worked_example_generic_point(self):
        charset, report, tc = tangent_pipeline([dp("z*y' - y")],
                                               point("t", "t"))
        assert str(report.dimpoly) == "t + 2"
        assert report.diff_dimension == 1
        assert tc == TangentClass(1, 0, ())

    def test_worked_example_constant_point(self):
        charset, report, tc = tangent_pipeline([dp("z*y' - y")],
                                               point("1", "0"))
        assert str(report.dimpoly) == "t + 2"
        assert report.diff_dimension == 1
        assert tc == TangentClass(1, 1, (1,))

    def test_single_variable_cut_to_zero(self):
        names = ["y"]
        f = parse_diffpoly("y", CFG1, names)
        x = VarietyPoint(CFG1, [RatFun.from_const(1, 0)])
        charset, report, tc = tangent_pipeline([f], x)
        assert report.dimpoly.is_zero()
        assert (tc.d, tc.k) == (0, 0)

    def test_tangent_family_along_a_curve(self):
        # for each solution y0 of the first equation, the pair
        # (y - t*y', y) linearized at (y0' , y0) ... sanity across points
        for y0 in ("t^2", "t^3", "1/t"):
            f = dp("z*y' - y")
            y0r = parse_ratfun(y0, CFG1)
            x = VarietyPoint(CFG1, [y0r / y0r.derive(0), y0r])
            charset, report, tc = tangent_pipeline([f], x)
            assert report.diff_dimension == 1
            assert tc.d == 1

    def test_point_off_variety_reports_equation(self):
        with pytest.raises(PointNotOnVariety) as exc:
            tangent_pipeline([dp("z - 1"), dp("z*y' - y")], point("1", "1"))
        assert exc.value.equation_index == 1

    @pytest.mark.parametrize("entry", ["zero", "delta^5"])
    def test_cross_check_rejects_a_wrong_diagonal(self, monkeypatch, entry):
        # the report gives d = 1, B = 1; a zero diagonal entry claims d = 2,
        # a delta^5 entry claims k = 5 > B
        real = diffalg.normalform.diagonalize

        def wrong(A):
            result = real(A)
            D = OreMatrix.zero(A.config, A.rows, A.cols)
            if entry == "delta^5":
                D.entries[0][0] = OrePoly.delta(A.config, 0) ** 5
            return Diagonalization(result.U, D, result.V, result.U_inv,
                                   result.V_inv)

        monkeypatch.setattr(diffalg.normalform, "diagonalize", wrong)
        with pytest.raises(DiffAlgError, match="contradicts"):
            tangent_pipeline([dp("z*y' - y")], point("t", "t"))

    def test_nonlinear_system_two_equations(self):
        # z = y' and y'' = 2 at the parabola point
        eqs = [dp("z - y'"), dp("y'' - 2")]
        charset, report, tc = tangent_pipeline(eqs, point("2*t", "t^2"))
        assert report.diff_dimension == 0
        assert tc.d == 0 and tc.k == 2


def _rand_diffpoly(rng, names=("z", "y")):
    n = len(names)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = []
        for _ in range(rng.randint(0, 2)):
            comp = rng.randrange(n)
            ordr = rng.randint(0, 2)
            mono.append(((comp, (ordr,)), 1))
        merged = {}
        for key, p in mono:
            merged[key] = merged.get(key, 0) + p
        coeff = RatFun.from_const(1, rng.randint(-3, 3))
        if rng.random() < 0.3:
            coeff = coeff * T
        key = tuple(sorted(merged.items()))
        terms[key] = terms.get(key, RatFun.from_const(1, 0)) + coeff
    return DiffPoly(CFG1, n, {k: c for k, c in terms.items() if c})
