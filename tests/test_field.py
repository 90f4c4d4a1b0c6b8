"""Base-field arithmetic: canonical forms, field axioms, derivations."""

import random
import time
from fractions import Fraction

import pytest

from diffalg import (BadDerivation, DiffFieldConfig, DivisionByZero, MPoly,
                     RatFun, field, mpoly_gcd, normalize)
from diffalg.field import _gcd_cofactors, _prs_gcd
from helpers import rand_mpoly, rand_ratfun

CFG1 = DiffFieldConfig(1, 1)
CFG22 = DiffFieldConfig(2, 2)


def t_(i=0, nvars=1):
    return RatFun.var(nvars, i)


def const(value, nvars=1):
    return RatFun.from_const(nvars, value)


class TestArith:
    def test_add_common_denominator(self):
        t = t_()
        assert 1 / t + t == (t * t + 1) / t

    def test_mul_inverse_pair(self):
        t = t_()
        assert (t / (t + 1)) * ((t + 1) / t) == const(1)

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            const(1) / const(0)

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            const(0, 2).inverse()

    def test_field_axioms_random(self):
        rng = random.Random(11)
        one = const(1, 2)
        for _ in range(60):
            a = rand_ratfun(rng, CFG22)
            b = rand_ratfun(rng, CFG22)
            c = rand_ratfun(rng, CFG22)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == one
            # canonical form: coprime over Z, lex-positive denominator
            for x in (a + b, a * b, a - c, a.derive(0), a.derive(1)):
                assert mpoly_gcd(x.num, x.den).is_one()
                assert x.den.lex_leading()[1] > 0

    def test_canonical_uniqueness(self):
        t = t_()
        # equal values built along different routes are bit-identical
        x = (t * t + 2 * t + 1) / (t + 1)
        y = t + 1
        assert x == y
        assert x.num.terms == y.num.terms and x.den.terms == y.den.terms
        assert hash(x) == hash(y)
        # over Z a constant gcd such as 2 is not a unit: 1/2 * 2 and
        # 1/2 + 1/2 must cancel it to 1/1, not stop at 2/2
        half = RatFun.from_const(1, Fraction(1, 2))
        for one in (half * 2, half + half):
            assert one.num.terms == one.den.terms == {(0,): 1}


class TestDerive:
    def test_polynomial(self):
        t = t_()
        assert (t * t + 1).derive(0) == 2 * t

    def test_quotient_rule(self):
        t = t_()
        assert (1 / t).derive(0) == -1 / (t * t)

    def test_integer_content_cancels(self):
        t = t_()
        d = (t ** 2 / 4).derive(0)
        assert d == t / 2
        assert d.num.terms == {(1,): 1} and d.den.terms == {(0,): 2}

    def test_memoized_per_object(self):
        t = t_()
        a = t ** 3 / (t + 2)
        seen = (repr(a), hash(a))
        d = a.derive(0)
        assert a.derive(0) is d
        assert d == (t ** 3 / (t + 2)).derive(0)
        assert (repr(a), hash(a)) == seen and a == t ** 3 / (t + 2)
        assert const(Fraction(3, 7)).derive(0) == const(0)

    def test_independent_variable(self):
        t1 = RatFun.var(2, 0)
        assert t1.derive(1) == const(0, 2)

    def test_index_past_variables_is_zero(self):
        # m = 2 over Q(t): the second derivation annihilates everything
        t = t_()
        assert (t ** 3 / (t + 2)).derive(1) == const(0)

    def test_negative_index(self):
        with pytest.raises(BadDerivation):
            t_().derive(-1)

    def test_derivation_axioms_random(self):
        rng = random.Random(12)
        for _ in range(40):
            a = rand_ratfun(rng, CFG22)
            b = rand_ratfun(rng, CFG22)
            for i in range(2):
                assert (a + b).derive(i) == a.derive(i) + b.derive(i)
                assert (a * b).derive(i) == a * b.derive(i) + b * a.derive(i)
            assert a.derive(0).derive(1) == a.derive(1).derive(0)


def gcd_against_prs(f, g):
    """GCDHEU's (h, f/h, g/h), checked against the primitive PRS."""
    h, cf, cg = _gcd_cofactors(f, g)
    assert h == _prs_gcd(f, g)
    assert h * cf == f and h * cg == g
    return h


def hostile_pair(a, b, degree=3000):
    """(t^degree + 1)*(t + a) and (t^degree + 1)*(t + b)."""
    p = MPoly(1, {(degree,): 1, (0,): 1})
    return p, p * MPoly(1, {(1,): 1, (0,): a}), p * MPoly(1, {(1,): 1, (0,): b})


class TestGcd:
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_heuristic_matches_prs(self, v):
        rng = random.Random(40 + v)
        before = field.prs_fallbacks
        for _ in range(25):
            a, b, c = (rand_mpoly(rng, v, max_deg=3 - v // 2, max_terms=3)
                       for _ in range(3))
            c = c * rng.choice([2, 3, 6, 10])
            pairs = [(a, b),                        # coprime, mostly
                     (a * c, b * c),                # planted factor
                     (a * c * 4, b * c * 6),        # ... and integer content
                     (-(a * c), -(b * c)),          # negative leading coeffs
                     (a * c, c), (c, b * c),        # one divides the other
                     (a, a), (-b, -b)]              # equal inputs
            for f, g in pairs:
                gcd_against_prs(f, g)
            if c:
                # the planted factor divides the gcd
                h = mpoly_gcd(a * c, b * c)
                assert h.divexact(c) * c == h
        # the heuristic settled every pair itself
        assert field.prs_fallbacks == before

    def test_zero_inputs(self):
        p = MPoly(2, {(1, 0): -2, (0, 1): 4})
        zero = MPoly.zero(2)
        assert gcd_against_prs(p, zero) == -p
        assert gcd_against_prs(zero, p) == -p
        assert _gcd_cofactors(zero, zero) == (zero, zero, zero)

    @pytest.mark.parametrize("a, b, degree", [
        (2 ** 400, 3 ** 260, 3000),     # xi > 2^400: image over 2^20 bits
        (2, 3, 20000),                  # degree over 2^12
    ])
    def test_fallback_past_the_size_guards(self, a, b, degree):
        p, f, g = hostile_pair(a, b, degree)
        before = field.prs_fallbacks
        assert gcd_against_prs(f, g) == p
        assert field.prs_fallbacks == before + 1

    def test_hostile_degree(self):
        p, f, g = hostile_pair(2, 3)
        start = time.perf_counter()
        assert gcd_against_prs(f, g) == p
        assert time.perf_counter() - start < 1.0


class TestNormalize:
    def test_constant_factor(self):
        two_t = MPoly(1, {(1,): 2})
        two = MPoly.const(1, 2)
        assert normalize(two_t, two) == t_()
        # the gcd is taken over Z, integer content included
        assert mpoly_gcd(two_t, MPoly.const(1, 4)) == two

    def test_integer_coefficients_only(self):
        with pytest.raises(ValueError):
            MPoly(1, {(1,): Fraction(1, 2)})

    def test_common_polynomial_factor(self):
        num = MPoly(1, {(2,): 1, (0,): -1})   # t^2 - 1
        den = MPoly(1, {(1,): 1, (0,): -1})   # t - 1
        result = normalize(num, den)
        # independent oracle: exact polynomial division
        assert num.divexact(den) == MPoly(1, {(1,): 1, (0,): 1})
        assert result == t_() + 1

    def test_sign_convention(self):
        num = MPoly(1, {(1,): 1})
        den = MPoly.const(1, -1)
        assert normalize(num, den) == -t_()

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            normalize(MPoly.const(1, 1), MPoly.zero(1))

    def test_zero_is_zero_over_one(self):
        r = normalize(MPoly.zero(1), MPoly(1, {(3,): 7}))
        assert r.is_zero() and r.den == MPoly.const(1, 1)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiffFieldConfig(0, 0)
        with pytest.raises(ValueError):
            DiffFieldConfig(1, 2)

    def test_constants_field_allowed(self):
        cfg = DiffFieldConfig(2, 0)
        assert cfg.m == 2 and cfg.v == 0
