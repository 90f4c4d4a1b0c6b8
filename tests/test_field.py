"""Base-field arithmetic: canonical forms, field axioms, derivations."""

import random
from fractions import Fraction

import pytest

from diffalg import (BadDerivation, DiffFieldConfig, DivisionByZero, MPoly,
                     RatFun, mpoly_gcd, normalize)
from helpers import rand_ratfun

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
