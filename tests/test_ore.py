"""Operator ring K[Delta]: commutation, products, Euclidean division, action."""

import random

import pytest

from diffalg import (ConfigMismatch, DiffFieldConfig, DiffPoly, DivisionByZero,
                     ModElement, OrePoly, RatFun, UnsupportedForPartial,
                     ore_divmod, ore_mul)
from diffalg.ore import TermMap, _left_mul
from helpers import (count_calls, delta, divmod_oracle, field_var,
                     from_operator_vector, operator, ore_apply,
                     ore_mul_binomial, rand_modelement, rand_orepoly,
                     rand_ratfun)

CFG1 = DiffFieldConfig(1, 1)


def t_scalar(cfg=CFG1):
    return operator(cfg, field_var(cfg.v, 0))


class TestProduct:
    def test_delta_times_t(self):
        d = delta(CFG1, 0)
        t = t_scalar()
        assert d * t == t * d + 1

    def test_delta_squared_times_t(self):
        d = delta(CFG1, 0)
        t = t_scalar()
        assert d * d * t == t * d ** 2 + 2 * d

    def test_difference_of_factors(self):
        d = delta(CFG1, 0)
        t = t_scalar()
        assert (d + t) * (d - t) == d ** 2 - t * t - 1

    def test_commutation_identity_random(self):
        rng = random.Random(21)
        for m, v in ((1, 1), (2, 2), (3, 2)):
            cfg = DiffFieldConfig(m, v)
            for _ in range(20):
                a = rand_ratfun(rng, cfg)
                sa = operator(cfg, a)
                for i in range(m):
                    di = delta(cfg, i)
                    assert di * sa - sa * di == \
                        operator(cfg, a.derive(i))

    def test_binomial_formula_oracle(self):
        rng = random.Random(22)
        for m, v in ((1, 1), (2, 1), (3, 3)):
            cfg = DiffFieldConfig(m, v)
            for _ in range(25):
                f = rand_orepoly(rng, cfg)
                g = rand_orepoly(rng, cfg)
                assert ore_mul(f, g) == ore_mul_binomial(f, g)

    @pytest.mark.parametrize("m", [1, 2])
    def test_shared_shifts_match_binomial(self, m):
        # many terms of f per product, so the shifts delta^theta * g are
        # reused across terms
        rng = random.Random(24 + m)
        cfg = DiffFieldConfig(m, 1)
        for _ in range(20):
            f = rand_orepoly(rng, cfg, max_deg=4, max_terms=5)
            g = rand_orepoly(rng, cfg, max_deg=2, max_terms=3)
            assert ore_mul(f, g) == ore_mul_binomial(f, g)

    @pytest.mark.parametrize("cls", [OrePoly, ModElement])
    def test_one_shift_per_order(self, monkeypatch, cls):
        calls = count_calls(monkeypatch, cls, "apply_delta")
        d = delta(CFG1, 0)
        t = t_scalar()
        f = d ** 4 + t * d ** 3 + d + 1
        if cls is OrePoly:
            calls.clear()
            product = ore_mul(f, t)
            expected = ore_mul_binomial(f, t)
        else:
            w = from_operator_vector([t, d + 1])
            calls.clear()
            product = _left_mul(f, w)
            expected = from_operator_vector(
                [ore_mul_binomial(f, c) for c in w.operator_vector()])
        assert len(calls) == 4
        assert product == expected

    @pytest.mark.parametrize("m", [1, 2])
    def test_module_product_matches_binomial(self, m):
        rng = random.Random(30 + m)
        cfg = DiffFieldConfig(m, 1)
        for _ in range(20):
            op = rand_orepoly(rng, cfg, max_deg=3, max_terms=4)
            w = rand_modelement(rng, cfg, rng.randint(1, 3))
            expected = [ore_mul_binomial(op, c) for c in w.operator_vector()]
            assert _left_mul(op, w) == from_operator_vector(expected)

    @pytest.mark.parametrize("m", [1, 2])
    def test_constant_coefficient_shifts(self, monkeypatch, m):
        # with constant coefficients, delta^theta * g is a shift of g's keys,
        # built without applying delta
        calls = count_calls(monkeypatch, TermMap, "apply_delta")
        rng = random.Random(34 + m)
        cfg = DiffFieldConfig(m, 1)
        for _ in range(20):
            f = rand_orepoly(rng, cfg, max_deg=4, max_terms=4)
            g = rand_orepoly(rng, cfg, max_deg=3, max_terms=3,
                             frac_prob=0.0, coeff_deg=0)
            w = rand_modelement(rng, cfg, rng.randint(1, 3), frac_prob=0.0,
                                coeff_deg=0)
            assert ore_mul(f, g) == ore_mul_binomial(f, g)
            expected = [ore_mul_binomial(f, c) for c in w.operator_vector()]
            assert _left_mul(f, w) == from_operator_vector(expected)
        assert not calls

    def test_identity_factor(self):
        rng = random.Random(28)
        one = OrePoly.one(CFG1)
        assert one.is_one()
        assert not OrePoly.zero(CFG1).is_one()
        assert not delta(CFG1, 0).is_one()
        assert not operator(CFG1, 2).is_one()
        for _ in range(10):
            f = rand_orepoly(rng, CFG1)
            assert ore_mul(one, f) == f == ore_mul(f, one)

    def test_degree_additivity(self):
        rng = random.Random(23)
        cfg = DiffFieldConfig(2, 2)
        for _ in range(30):
            f = rand_orepoly(rng, cfg, nonzero=True)
            g = rand_orepoly(rng, cfg, nonzero=True)
            assert (f * g).degree() == f.degree() + g.degree()

    def test_ring_laws_random(self):
        rng = random.Random(24)
        cfg = DiffFieldConfig(2, 1)
        for _ in range(25):
            f = rand_orepoly(rng, cfg)
            g = rand_orepoly(rng, cfg)
            h = rand_orepoly(rng, cfg)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h

    def test_constants_field_is_commutative(self):
        rng = random.Random(25)
        cfg = DiffFieldConfig(2, 0)
        for _ in range(20):
            f = rand_orepoly(rng, cfg)
            g = rand_orepoly(rng, cfg)
            assert f * g == g * f


def rand_diffpoly(rng, cfg, n):
    x = DiffPoly(cfg, n)
    for _ in range(rng.randint(1, 3)):
        term = DiffPoly.const(cfg, n, rand_ratfun(rng, cfg))
        for _ in range(rng.randint(0, 2)):
            exps = tuple(rng.randint(0, 1) for _ in range(cfg.m))
            term = term * DiffPoly.indeterminate(cfg, n, rng.randrange(n), exps)
        x = x + term
    return x


class TestScalarLeftProducts:
    @pytest.mark.parametrize("m, v", [(1, 0), (1, 1), (2, 0), (2, 1),
                                      (2, 2)])
    def test_a_scalar_only_scales(self, monkeypatch, m, v):
        # no delta stands left of g, so its shift chain is g alone
        calls = count_calls(monkeypatch, TermMap, "apply_delta")
        rng = random.Random(f"scalar {m} {v}")
        cfg = DiffFieldConfig(m, v)
        scalars = [1, -1, 0, RatFun.from_const(v, -3) / 4, 7, *(
            rand_ratfun(rng, cfg, frac_prob=0.7, nonzero=True)
            for _ in range(6))]
        if v:
            assert any(not c.den.is_const() for c in scalars[5:])
        for c in scalars:
            f = operator(cfg, c)
            for n in (1, 2):
                g = rand_orepoly(rng, cfg, max_deg=3, max_terms=3)
                assert ore_mul(f, g) == g.scale_left(c) \
                    == ore_mul_binomial(f, g)
                w = rand_modelement(rng, cfg, n)
                assert _left_mul(f, w) == w.scale_left(c) \
                    == from_operator_vector([ore_mul_binomial(f, x)
                                             for x in w.operator_vector()])
        assert calls == []


class TestApplyTheta:
    """Left multiplication by delta^theta runs on the product's shift walk."""

    @staticmethod
    def stepwise(g, theta):
        for i, k in enumerate(theta):
            for _ in range(k):
                g = g.apply_delta(i)
        return g

    @pytest.mark.parametrize("m", [1, 2])
    def test_constant_coefficients_only_shift(self, monkeypatch, m):
        rng = random.Random(40 + m)
        cfg = DiffFieldConfig(m, 1)
        cases = []
        for _ in range(20):
            theta = tuple(rng.randint(0, 3) for _ in range(m))
            for g in (rand_orepoly(rng, cfg, max_deg=3, max_terms=3,
                                   frac_prob=0.0, coeff_deg=0),
                      rand_modelement(rng, cfg, 2, frac_prob=0.0,
                                      coeff_deg=0)):
                cases.append((g, theta, self.stepwise(g, theta)))
        calls = count_calls(monkeypatch, TermMap, "apply_delta")
        for g, theta, expected in cases:
            assert g.apply_theta(theta) == expected
        assert not calls

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_delta_per_order_with_field_coefficients(self, monkeypatch,
                                                         m):
        rng = random.Random(50 + m)
        cfg = DiffFieldConfig(m, 1)
        t = field_var(1, 0)
        cases = []
        for _ in range(20):
            theta = tuple(rng.randint(0, 3) for _ in range(m))
            op = rand_orepoly(rng, cfg, max_deg=2) + operator(cfg,
                                                                        t)
            w = rand_modelement(rng, cfg, 2) + ModElement(
                cfg, 2, {(0, (0,) * m): t})
            for g in (op, w):
                cases.append((g, theta, self.stepwise(g, theta)))
            assert cases[-2][2] == ore_mul_binomial(
                OrePoly(cfg, {theta: 1}), op)
        calls = count_calls(monkeypatch, TermMap, "apply_delta")
        for g, theta, expected in cases:
            calls.clear()
            assert g.apply_theta(theta) == expected
            assert sorted(i for _, i in calls) == [
                i for i, k in enumerate(theta) for _ in range(k)]

    def test_differential_polynomials_refuse_delta(self):
        y = DiffPoly.indeterminate(CFG1, 1, 0)
        with pytest.raises(TypeError, match="Delta does not act on DiffPoly"):
            y.apply_theta((1,))
        with pytest.raises(TypeError, match="Delta does not act on DiffPoly"):
            DiffPoly.const(CFG1, 1, 2).apply_theta((0,))


class TestPower:
    @pytest.mark.parametrize("kind", ["ore1", "ore2", "diffpoly"])
    def test_power_is_repeated_product(self, kind):
        rng = random.Random(29)
        cfg = DiffFieldConfig(2 if kind == "ore2" else 1, 1)
        for _ in range(5):
            if kind == "diffpoly":
                x = rand_diffpoly(rng, cfg, 2)
                product = DiffPoly.const(cfg, 2, 1)
            else:
                x = rand_orepoly(rng, cfg)
                product = OrePoly.one(cfg)
            for k in range(8):
                assert x ** k == product
                product = product * x

    def test_negative_power_rejected(self):
        x = delta(CFG1, 0)
        with pytest.raises(ValueError):
            x ** -1
        with pytest.raises(ValueError):
            DiffPoly.indeterminate(CFG1, 1, 0) ** -1


class TestRingMismatch:
    @pytest.mark.parametrize("pair", ["ore", "module", "diffpoly"])
    @pytest.mark.parametrize("op", ["add", "sub", "eq"])
    def test_operands_over_different_rings(self, pair, op):
        if pair == "ore":
            a = delta(CFG1, 0)
            b = delta(DiffFieldConfig(1, 0), 0)
        elif pair == "module":
            a = ModElement(CFG1, 1, {(0, (0,)): 1})
            b = ModElement(CFG1, 2, {(0, (0,)): 1})
        else:
            a = DiffPoly.indeterminate(CFG1, 1, 0)
            b = DiffPoly.indeterminate(CFG1, 2, 0)
        with pytest.raises(ConfigMismatch):
            if op == "add":
                a + b
            elif op == "sub":
                a - b
            else:
                a == b

    def test_operator_product_of_two_rings(self):
        a, b = delta(CFG1, 0), delta(DiffFieldConfig(1, 0), 0)
        for f, g in ((a, b), (b, a)):
            with pytest.raises(ConfigMismatch, match="different config"):
                ore_mul(f, g)
            with pytest.raises(ConfigMismatch, match="different config"):
                f * g

    def test_a_coefficient_over_another_field(self):
        # t1 of Q(t1, t2) is no element of Q(t)
        t1 = field_var(2, 0)
        for build in (lambda: OrePoly(CFG1, {(1,): t1}),
                      lambda: ModElement(CFG1, 1, {(0, (0,)): t1}),
                      lambda: DiffPoly(CFG1, 1, {(): t1}),
                      lambda: OrePoly.one(CFG1) + t1,
                      lambda: delta(CFG1, 0).scale_left(t1)):
            with pytest.raises(ConfigMismatch, match="variable count"):
                build()

    def test_operator_plus_module_element(self):
        with pytest.raises(TypeError):
            delta(CFG1, 0) + ModElement(CFG1, 1, {(0, (0,)): 1})
        with pytest.raises(TypeError):
            ModElement(CFG1, 1, {(0, (0,)): 1}) + delta(CFG1, 0)


class TestCheckedConstructor:
    # per class: a builder from terms, two well-formed keys, malformed keys
    RINGS = {
        "ore": (lambda terms: OrePoly(CFG1, terms), [(1,), (0,)],
                [(), (0, 1)]),
        "module": (lambda terms: ModElement(CFG1, 1, terms),
                   [(0, (1,)), (0, (0,))], [(5, (0,)), (-1, (0,)), (0, ())]),
        "diffpoly": (lambda terms: DiffPoly(CFG1, 1, terms),
                     [(((0, (1,)), 2),), ()],
                     [(((5, (0,)), 1),), (((0, ()), 1),), (((0, (0,)), 0),)]),
    }

    @pytest.mark.parametrize("ring", sorted(RINGS))
    def test_every_key_is_checked_and_zeros_dropped(self, ring):
        build, (key, other), malformed = self.RINGS[ring]
        t = field_var(1, 0)
        for bad in malformed:
            for coeff in (0, 1, t):
                with pytest.raises(ValueError):
                    build({bad: coeff, key: 1})
        assert build({key: t, other: 0}).terms == {key: t}
        assert build({key: t - t}).is_zero()


class TestDivision:
    @pytest.mark.parametrize("ring", ["ore", "diffpoly"])
    def test_divisor_must_be_a_nonzero_scalar(self, ring):
        t = field_var(1, 0)
        if ring == "ore":
            x, zero = delta(CFG1, 0), OrePoly.zero(CFG1)
        else:
            x, zero = DiffPoly.indeterminate(CFG1, 1, 0), DiffPoly(CFG1, 1)
        assert x / (zero + t) * t == x / t * t == x
        for divisor in (zero, 0):
            with pytest.raises(DivisionByZero):
                x / divisor
        with pytest.raises(ValueError):
            x / (x + 1)


class TestDivmod:
    def test_right_division_paper_product(self):
        d = delta(CFG1, 0)
        t = t_scalar()
        f = d ** 2 - t * t - 1
        g = d - t
        q, r = ore_divmod(f, g, side="right")
        assert q == d + t and r.is_zero()
        assert ore_mul(q, g) + r == f

    def test_self_division(self):
        d = delta(CFG1, 0)
        q, r = ore_divmod(d, d)
        assert q == OrePoly.one(CFG1) and r.is_zero()

    def test_zero_divisor(self):
        d = delta(CFG1, 0)
        with pytest.raises(DivisionByZero):
            ore_divmod(d, OrePoly.zero(CFG1))

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_operands_over_different_rings(self, side):
        d = delta(CFG1, 0)
        with pytest.raises(ConfigMismatch):
            ore_divmod(d * d, delta(DiffFieldConfig(1, 0), 0), side)

    def test_unknown_side(self):
        d = delta(CFG1, 0)
        with pytest.raises(ValueError, match="side must be"):
            ore_divmod(d * d, d, side="top")

    def test_partial_case_rejected(self):
        cfg = DiffFieldConfig(2, 1)
        d1 = delta(cfg, 0)
        with pytest.raises(UnsupportedForPartial):
            ore_divmod(d1, d1)

    def test_division_contract_random(self):
        rng = random.Random(26)
        for _ in range(40):
            f = rand_orepoly(rng, CFG1, max_deg=3)
            g = rand_orepoly(rng, CFG1, max_deg=2, nonzero=True)
            for side in ("right", "left"):
                q, r = ore_divmod(f, g, side=side)
                back = ore_mul(q, g) if side == "right" else ore_mul(g, q)
                assert back + r == f
                assert r.degree() < g.degree()

    def test_matches_generic_division_oracle(self):
        # each step drops the cancelled leading term without arithmetic;
        # the oracle computes it, and the results must agree exactly
        rng = random.Random(27)
        for v in (0, 1):
            cfg = DiffFieldConfig(1, v)
            for _ in range(20):
                f = rand_orepoly(rng, cfg, max_deg=4, max_terms=3)
                g = rand_orepoly(rng, cfg, max_deg=2, max_terms=3,
                                 nonzero=True)
                for side in ("right", "left"):
                    assert ore_divmod(f, g, side) == divmod_oracle(f, g, side)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_one_step_sums_nothing_at_the_cancelled_key(self, monkeypatch,
                                                        side):
        # deg f = deg g: one step, whose leading term cancels; no base-field
        # sum comes out zero, and a right division forms no product equal
        # to the leading coefficient it cancels
        t = field_var(1, 0)
        f = OrePoly(CFG1, {(2,): (t + 1) / (t - 1), (1,): t, (0,): 1})
        g = OrePoly(CFG1, {(2,): t * t + 2, (1,): 1 / t, (0,): 3 * t})
        expected = divmod_oracle(f, g, side)
        calls = {name: count_calls(monkeypatch, RatFun, name) for name in
                 ("__add__", "__radd__", "__mul__", "__rmul__")}
        q, r = ore_divmod(f, g, side)
        monkeypatch.undo()
        sums = [a + b for name in ("__add__", "__radd__")
                for a, b in calls[name]]
        products = [a * b for name in ("__mul__", "__rmul__")
                    for a, b in calls[name]]
        assert (q, r) == expected and q.degree() == 0 and r.degree() == 1
        assert sums and not any(s.is_zero() for s in sums)
        if side == "right":
            lead = f.leading()[1]
            assert products and lead not in products \
                and -lead not in products


    def test_right_division_walks_one_shift_chain(self, monkeypatch):
        # every quotient term shifts the divisor; the shifts of one
        # division share one chain, so delta is applied once per degree
        # (20,100 times when each shift started from delta^0)
        d = delta(CFG1, 0)
        f, g = d ** 201, t_scalar() * d + 1
        calls = count_calls(monkeypatch, OrePoly, "apply_delta")
        q, r = ore_divmod(f, g, side="right")
        assert len(calls) <= 201
        monkeypatch.undo()
        assert q.degree() == 200 and r.degree() == 0
        assert ore_mul(q, g) + r == f


class TestApply:
    def test_linear(self):
        d = delta(CFG1, 0)
        t = field_var(1, 0)
        assert ore_apply(d - 1, t) == 1 - t

    def test_second_derivative(self):
        d = delta(CFG1, 0)
        t = field_var(1, 0)
        assert ore_apply(d * d, t ** 3) == 6 * t

    def test_annihilator(self):
        d = delta(CFG1, 0)
        t = field_var(1, 0)
        op = t_scalar() * d + 1
        assert ore_apply(op, 1 / t).is_zero()

    def test_module_action_compatibility(self):
        rng = random.Random(27)
        cfg = DiffFieldConfig(2, 2)
        for _ in range(25):
            f = rand_orepoly(rng, cfg)
            g = rand_orepoly(rng, cfg)
            a = rand_ratfun(rng, cfg)
            assert ore_apply(ore_mul(f, g), a) == ore_apply(f, ore_apply(g, a))
