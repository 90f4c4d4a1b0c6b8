"""Differential polynomials, evaluation at points, and linearization."""

import random

import pytest

import diffalg.field
import diffalg.normalform
from diffalg import (ConfigMismatch, Diagonalization, DiffAlgError,
                     DiffFieldConfig, DiffPoly, ModElement, OreMatrix,
                     PointNotOnVariety, RatFun, TangentClass, VarietyPoint,
                     eval_diffpoly, linearize_at_point, linearize_system,
                     ore_mul, tangent_pipeline)
from diffalg.variety import _power_bits
from helpers import (delta, field_var, formal_derive, formal_partial,
                     parse_diffpoly, parse_ratfun, rand_ratfun)

CFG1 = DiffFieldConfig(1, 1)
T = field_var(1, 0)


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


def chain_bits(x, exps):
    """The bits of the integers of the quotients among the derivatives
    kept on the way from x to delta^exps(x)."""
    bits = 0
    for i, k in enumerate(exps):
        for _ in range(k):
            if not x:
                return bits
            x = x.derive(i)
            if not x.den.is_const():
                bits += sum(c.bit_length() for p in (x.num, x.den)
                            for c in p.terms.values())
    return bits


def derive_formally(x, exps):
    for i, k in enumerate(exps):
        for _ in range(k):
            x = x.derive(i)
    return x


class TestDerivativeBound:
    @pytest.mark.parametrize("config", [CFG1, DiffFieldConfig(2, 2),
                                        DiffFieldConfig(3, 2)])
    def test_the_cap_is_the_chain_kept(self, monkeypatch, config):
        # steps along variables the denominator lacks are counted too
        rng = random.Random(f"chain {config.m} {config.v}")
        refused = 0
        for draw in range(40):
            # three quotients to each polynomial
            x = rand_ratfun(rng, config, frac_prob=0, coeff_deg=3)
            while draw % 4 and x.den.is_const():
                x = rand_ratfun(rng, config, frac_prob=1, coeff_deg=3)
            exps = tuple(rng.randint(0, 6) for _ in range(config.m))
            # the chain is built, and kept, before the cap is lowered
            bits, expected = chain_bits(x, exps), derive_formally(x, exps)
            point = VarietyPoint(config, [x])
            with monkeypatch.context() as patch:
                patch.setattr(diffalg.field, "MAX_BITS", bits)
                assert point.derivative_of_coordinate(0, exps) == expected
                if bits:
                    patch.setattr(diffalg.field, "MAX_BITS", bits - 1)
                    with pytest.raises(DiffAlgError,
                                       match=f"order {sum(exps)} "):
                        point.derivative_of_coordinate(0, exps)
                    refused += 1
        assert refused >= 20

    @pytest.mark.parametrize("text, exps, refused", [
        ("t2^1000/(t1 + 1)", (1, 1000), True),
        ("t2^1000/(t1 + 1)", (0, 1000), True),
        ("t2^3/(t1 + 1)", (1, 1000), False),
        ("t2^1000", (0, 1000), False),
    ])
    def test_mixed_variables(self, text, exps, refused):
        # along t2 the quotient is t2's polynomial over t1 + 1, and its
        # coefficients grow to 1000!; a polynomial stays unbounded
        config = DiffFieldConfig(2, 2)
        x = VarietyPoint(config, [parse_ratfun(text, config)])
        if refused:
            with pytest.raises(DiffAlgError, match=f"order {sum(exps)} "):
                x.derivative_of_coordinate(0, exps)
        else:
            assert x.derivative_of_coordinate(0, exps) \
                == derive_formally(parse_ratfun(text, config), exps)


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
        d = delta(CFG1, 0)
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
            assert rhs.operator_vector() == [ore_mul(d, e) for e in ops]

    def test_agrees_with_the_formal_partials(self):
        # the coefficient of theta*e_i is d f / d(theta*y_i) at x, whether
        # or not f vanishes there; powers up to 6 in one indeterminate
        rng = random.Random(83)
        points = [point("t", "t^2 + 1"), point("1/t", "0"),
                  point("2", "(t - 1)/(t + 3)"), point("-1", "t^3")]
        for draw in range(40):
            f = _rand_diffpoly(rng, max_power=3)
            x = points[draw % len(points)]
            keys = {key for mono in f.terms for key, _ in mono}
            expected = ModElement(CFG1, 2, {
                key: eval_diffpoly(formal_partial(f, key), x)
                for key in keys})
            assert linearize_at_point(f, x) == expected

    @pytest.mark.parametrize("shape", ["rank", "configuration"])
    def test_polynomial_and_point_of_different_shapes(self, shape):
        f = dp("z*y' - y")
        if shape == "rank":
            x = point("t")
        else:
            x = VarietyPoint(DiffFieldConfig(1, 0), [1, 0])
        for call in (eval_diffpoly, linearize_at_point):
            with pytest.raises(ConfigMismatch, match="different shapes"):
                call(f, x)

    def test_no_power_past_the_one_the_check_took(self, monkeypatch):
        # y^3 - (t + 2)^3 at y = t + 2: the check raises t + 2 to the power
        # 3, the differential 3*(t + 2)^2 only to 2; the differential alone
        # bounds each power it takes, that of another factor's value too
        f, g = dp("y^3 - (t + 2)^3"), dp("z^3*y")
        x = point("t + 2", "t + 2")
        b = parse_ratfun("t + 2", CFG1)
        cube, square = _power_bits(b, 3), _power_bits(b, 2)
        assert square < cube
        expected = linear_elem(2, {(1, (0,)): 3 * b ** 2})
        monkeypatch.setattr(diffalg.field, "MAX_BITS", cube)
        assert linearize_system([f], x) == [expected]
        assert linearize_at_point(g, x) == linear_elem(
            2, {(0, (0,)): 3 * b ** 3, (1, (0,)): b ** 3})
        monkeypatch.setattr(diffalg.field, "MAX_BITS", cube - 1)
        for call in (lambda: linearize_system([f], x),
                     lambda: linearize_at_point(g, x)):
            with pytest.raises(DiffAlgError, match="to the power 3 "):
                call()
        assert linearize_at_point(f, x) == expected
        monkeypatch.setattr(diffalg.field, "MAX_BITS", square - 1)
        with pytest.raises(DiffAlgError, match="to the power 2 "):
            linearize_at_point(f, x)


class TestLinearizeSystem:
    def test_one_differential_per_equation(self):
        eqs = [dp("z - y'"), dp("y'' - 2")]
        x = point("2*t", "t^2")
        assert linearize_system(eqs, x) == [linearize_at_point(f, x)
                                            for f in eqs]

    def test_no_equations(self):
        with pytest.raises(ValueError, match="at least one equation"):
            linearize_system([], point("t", "t"))


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
                D.entries[0][0] = delta(A.config, 0) ** 5
            return Diagonalization(result.U_ops, D, result.V_ops,
                                   result.U_inv, result.V_inv)

        monkeypatch.setattr(diffalg.normalform, "diagonalize", wrong)
        with pytest.raises(DiffAlgError, match="contradicts"):
            tangent_pipeline([dp("z*y' - y")], point("t", "t"))

    def test_nonlinear_system_two_equations(self):
        # z = y' and y'' = 2 at the parabola point
        eqs = [dp("z - y'"), dp("y'' - 2")]
        charset, report, tc = tangent_pipeline(eqs, point("2*t", "t^2"))
        assert report.diff_dimension == 0
        assert tc.d == 0 and tc.k == 2


def _rand_diffpoly(rng, names=("z", "y"), max_power=1):
    n = len(names)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = []
        for _ in range(rng.randint(0, 2)):
            comp = rng.randrange(n)
            ordr = rng.randint(0, 2)
            power = rng.randint(1, max_power) if max_power > 1 else 1
            mono.append(((comp, (ordr,)), power))
        merged = {}
        for key, p in mono:
            merged[key] = merged.get(key, 0) + p
        coeff = RatFun.from_const(1, rng.randint(-3, 3))
        if rng.random() < 0.3:
            coeff = coeff * T
        key = tuple(sorted(merged.items()))
        terms[key] = terms.get(key, RatFun.from_const(1, 0)) + coeff
    return DiffPoly(CFG1, n, {k: c for k, c in terms.items() if c})
