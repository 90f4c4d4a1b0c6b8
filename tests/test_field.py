"""Base-field arithmetic: canonical forms, field axioms, derivations."""

import math
import random
import time
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from diffalg import (BadDerivation, DegreeTooLarge, DiffAlgError,
                     DiffFieldConfig, DiffPoly, DivisionByZero,
                     ExponentOverflow, ModElement, MPoly, OrePoly, RatFun,
                     field, mpoly_gcd)
from diffalg.field import _gcd_cofactors, _prs_gcd, _quotient
from helpers import (count_calls, delta, field_var, rand_mpoly, rand_ratfun,
                     tuple_mul, tuple_quotient)

CFG1 = DiffFieldConfig(1, 1)
CFG22 = DiffFieldConfig(2, 2)


def t_(i=0, nvars=1):
    return field_var(nvars, i)


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
        half = RatFun.from_const(1, 1) / 2
        for one in (half * 2, half + half):
            assert one.num.exponents() == one.den.exponents() == {(0,): 1}


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
        assert (d.num.exponents() == {(1,): 1}
                and d.den.exponents() == {(0,): 2})

    def test_memoized_per_object(self):
        t = t_()
        a = t ** 3 / (t + 2)
        seen = (repr(a), hash(a))
        d = a.derive(0)
        assert a.derive(0) is d
        assert d == (t ** 3 / (t + 2)).derive(0)
        assert (repr(a), hash(a)) == seen and a == t ** 3 / (t + 2)
        assert (const(3) / 7).derive(0) == const(0)

    def test_independent_variable(self):
        t1 = t_(0, 2)
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

    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_single_term_in_closed_form(self, monkeypatch, v):
        calls = count_calls(monkeypatch, field, "_heuristic")
        rng = random.Random(90 + v)
        before = field.prs_fallbacks
        monomial_gcds = 0
        for _ in range(40):
            # zero exponents in some variables, negative coefficients
            exps = tuple(rng.choice([0, 0, 1, 3]) for _ in range(v))
            mono = MPoly(v, {exps: rng.choice([-6, -1, 1, 2, 5])})
            other = rand_mpoly(rng, v, max_deg=3, max_terms=4)
            k = rng.choice([2, 3, 6])
            for f, g in ((mono * k, other * k),         # shared content
                         (other * mono, -mono),         # mono divides
                         (mono * 3, other * mono * 6),
                         (other, mono), (mono, other)):
                h = gcd_against_prs(f, g)
                assert h.is_zero() or h.lex_leading()[1] > 0
                monomial_gcds += len(h.terms) == 1 and not h.is_const()
        assert monomial_gcds > 40
        assert not calls
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

    @pytest.mark.parametrize("nvars", [1, 2])
    def test_prs_on_sparse_pairs_of_huge_degree(self, nvars):
        # (t1^N*t2 + 1)*(t1^N*t2 + a): at most two steps per pseudo-division
        top = MPoly(nvars, {(10 ** 12,) + (1,) * (nvars - 1): 1})
        p = top + MPoly.const(nvars, 1)
        f, g = (p * (top + MPoly.const(nvars, a)) for a in (2, -3))
        start = time.perf_counter()
        assert _prs_gcd(f, g) == p
        assert _prs_gcd(p + MPoly.const(nvars, 1), p).is_one()
        assert time.perf_counter() - start < 1.0

    def test_prs_past_the_step_cap_raises(self):
        # t^N + 1 by t - 2 takes N + 1 steps
        degree = field.MAX_PRS_STEPS + 1
        f = MPoly(1, {(degree,): 1, (0,): 1})
        g = MPoly(1, {(1,): 1, (0,): -2})
        start = time.perf_counter()
        with pytest.raises(DegreeTooLarge) as exc:
            _prs_gcd(f, g)
        assert time.perf_counter() - start < 1.0
        assert DegreeTooLarge.exit_code == 1
        assert str(exc.value) == (
            f"gcd needs more than {field.MAX_PRS_STEPS} steps of "
            f"pseudo-division (degree {degree} by degree 1 in one field "
            f"variable)")


def upoly(nvars, x, coeffs):
    """The MPoly in t_x with the ascending coefficient list coeffs."""
    return MPoly(nvars, {tuple(i if j == x else 0 for j in range(nvars)): c
                         for i, c in enumerate(coeffs)})


def rand_upoly(rng, nvars, x, degree):
    """A random polynomial of the given degree >= 1 in t_x with a nonzero
    constant term, so never a single term: a single-term operand has its
    gcd in closed form and would not reach GCDHEU."""
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    coeffs[0] = coeffs[0] or 1
    return upoly(nvars, x, coeffs + [rng.choice([-3, -1, 1, 2])])


def points_drawn(monkeypatch):
    """The xi of every call of _horner (the dense level) and of _evaluate
    (the sparse level), listed per name in call order."""
    drawn = defaultdict(list)
    for name in ("_horner", "_evaluate"):
        original = getattr(field, name)

        def recorded(*args, _name=name, _original=original):
            drawn[_name].append(args[-1])
            return _original(*args)

        monkeypatch.setattr(field, name, recorded)
    return drawn


UNIVARIATE_CASES = [(nvars, x) for nvars in (1, 2, 3) for x in range(nvars)]


class TestDenseHeuristic:
    """GCDHEU on inputs in one variable t_x: dense integer lists."""

    @pytest.mark.parametrize("nvars, x", UNIVARIATE_CASES)
    def test_matches_prs(self, nvars, x):
        rng = random.Random(60 + 3 * nvars + x)
        before = field.prs_fallbacks
        for _ in range(20):
            a, b = (rand_upoly(rng, nvars, x, rng.randint(1, 5))
                    for _ in range(2))
            for h in (upoly(nvars, x, [rng.choice([-6, 1, 2, 10])]),
                      upoly(nvars, x, [rng.randint(-5, 5) or 1, 1]),
                      upoly(nvars, x, [rng.randint(-5, 5) or 1, -3]),
                      rand_upoly(rng, nvars, x, 3)):
                for f, g in ((h * a, h * b),              # planted factor
                             (-(h * a), h * b),           # negative lc
                             (h * a * 6, h * b * 4),      # integer content
                             (h * a, h)):                 # h divides f
                    gcd_against_prs(f, g)
                    assert mpoly_gcd(f, g).divexact(h)
        assert field.prs_fallbacks == before

    @pytest.mark.parametrize("nvars, x", UNIVARIATE_CASES)
    def test_second_evaluation_point(self, monkeypatch, nvars, x):
        # f = 2t(t + 1), g = (t - 2)(t + 1): at xi = 6 the images 84 and
        # 28 have gcd 28, whose digits give t^2 - t - 2 = g, which does not
        # divide f; the second xi settles it
        calls = count_calls(monkeypatch, field, "_horner")
        h = upoly(nvars, x, [1, 1])
        f, g = upoly(nvars, x, [0, 2]) * h, upoly(nvars, x, [-2, 1]) * h
        assert gcd_against_prs(f, g) == h
        assert len(calls) == 4

    def test_two_variables_draw_the_same_points(self, monkeypatch):
        # the pairs above, and one of them times t1: in t2 it runs the
        # sparse level, whose points are the dense level's 6 and 16
        drawn = points_drawn(monkeypatch)
        for nvars, x in UNIVARIATE_CASES:
            h = upoly(nvars, x, [1, 1])
            gcd_against_prs(upoly(nvars, x, [0, 2]) * h,
                            upoly(nvars, x, [-2, 1]) * h)
        assert drawn.pop("_horner") == [6, 6, 16, 16] * len(UNIVARIATE_CASES)
        h = upoly(2, 1, [1, 1]) * t_(0, 2).num
        f, g = upoly(2, 1, [0, 2]) * h, upoly(2, 1, [-2, 1]) * h
        assert gcd_against_prs(f, g) == h
        assert drawn == {"_evaluate": [6, 6, 16, 16]}

    def test_both_levels_give_up_before_the_same_point(self, monkeypatch):
        # t - xi vanishes at the first point xi = 2*|t^2 + big| + 2, and the
        # images at the next point could pass MAX_BITS: each level
        # evaluates at xi alone and leaves the gcd to the PRS
        big = 2 ** 340000
        xi = 2 * big + 2
        after = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
        bits = xi.bit_length()
        assert 2 * bits + bits <= field.MAX_BITS
        assert 2 * after.bit_length() + bits > field.MAX_BITS
        drawn = points_drawn(monkeypatch)
        t1 = t_(0, 2).num
        for (nvars, x), factor, level in (((1, 0), 1, "_horner"),
                                          ((2, 1), 1, "_horner"),
                                          ((2, 1), t1, "_evaluate")):
            f = upoly(nvars, x, [-xi, 1]) * factor
            g = upoly(nvars, x, [big, 0, 1]) * factor
            before = field.prs_fallbacks
            assert gcd_against_prs(f, g) == MPoly.const(nvars, 1) * factor
            assert field.prs_fallbacks == before + 1
            assert drawn == {level: [xi, xi]}
            drawn.clear()

    @pytest.mark.parametrize("nvars, x", [(1, 0), (2, 1), (3, 0)])
    def test_sparse_pair_past_the_degree_guard(self, nvars, x):
        degree = field._HEU_MAX_DEGREE + 1
        p = upoly(nvars, x, [1] + [0] * (degree - 1) + [1])
        f, g = p * upoly(nvars, x, [2, 1]), p * upoly(nvars, x, [3, 1])
        before = field.prs_fallbacks
        assert gcd_against_prs(f, g) == p
        assert field.prs_fallbacks == before + 1

    def test_univariate_inputs_stay_dense(self, monkeypatch):
        calls = {name: count_calls(monkeypatch, field, name) for name in
                 ("_evaluate", "_interpolate", "_heuristic_dense")}
        rng = random.Random(70)
        for nvars, x in UNIVARIATE_CASES:
            h = rand_upoly(rng, nvars, x, 2)
            a, b = (rand_upoly(rng, nvars, x, 3) for _ in range(2))
            gcd_against_prs(h * a, h * b)
        assert calls["_evaluate"] == calls["_interpolate"] == []
        assert len(calls["_heuristic_dense"]) >= len(UNIVARIATE_CASES)

    def test_two_variables_end_in_the_dense_level(self, monkeypatch):
        calls = {name: count_calls(monkeypatch, field, name)
                 for name in ("_evaluate", "_heuristic_dense")}
        h = MPoly(2, {(1, 1): 1, (0, 0): 3})
        f = h * MPoly(2, {(2, 0): 1, (0, 1): -2})
        g = h * MPoly(2, {(0, 2): 1, (1, 0): 5})
        assert gcd_against_prs(f, g) == h
        assert len(calls["_evaluate"]) >= 2
        assert len(calls["_heuristic_dense"]) >= 1


class TestHashOnDemand:
    def test_equal_values_built_apart_hash_equal(self):
        # the ring values keep no hash; each hash is computed when asked
        def values(cfg):
            t = t_()
            num = MPoly(2, {(1, 0): 3}) + MPoly(2, {(0, 2): -1})
            return [num, (t + 1) / (t * t - 1),
                    delta(cfg, 0) * t + 1,      # t*d + 1 + 1
                    ModElement(cfg, 2, {(1, (1,)): t}) + ModElement(
                        cfg, 2, {(0, (0,)): 1}),
                    DiffPoly.indeterminate(cfg, 1, 0, (1,)) ** 2 * t]

        def direct(cfg):
            t = t_()
            return [MPoly(2, {(0, 2): -1, (1, 0): 3}),
                    RatFun(MPoly(1, {(0,): 1}), MPoly(1, {(1,): 1,
                                                          (0,): -1})),
                    OrePoly(cfg, {(1,): t, (0,): 2}),
                    ModElement(cfg, 2, {(0, (0,)): 1, (1, (1,)): t}),
                    DiffPoly(cfg, 1, {(((0, (1,)), 2),): t})]

        for a, b in zip(values(DiffFieldConfig(1, 1)),
                        direct(DiffFieldConfig(1, 1))):
            assert a == b and a is not b
            assert hash(a) == hash(b)
            assert len({a, b}) == 1


class TestFromConst:
    @pytest.mark.parametrize("nvars", [0, 1, 3])
    @pytest.mark.parametrize("value", [0, 1, -1, 7 ** 40, -(3 ** 50)])
    def test_matches_the_checked_constructor(self, nvars, value):
        expected = RatFun(MPoly.const(nvars, value), MPoly.const(nvars, 1))
        r = RatFun.from_const(nvars, value)
        assert r == expected
        assert r.num.terms == expected.num.terms
        assert r.den.terms == expected.den.terms
        assert all(type(c) is int for c in r.num.terms.values())
        assert r.is_zero() == (value == 0) and r.is_one() == (value == 1)

    def test_a_fraction_is_refused(self):
        # int and RatFun are the only scalars; a quotient is a RatFun
        half = Fraction(1, 2)
        for build in (lambda: RatFun.from_const(1, half),
                      lambda: OrePoly.one(CFG1) + half,
                      lambda: ModElement(CFG1, 1, {(0, (0,)): half}),
                      lambda: t_() + half):
            with pytest.raises(TypeError):
                build()


class TestUnitShortcuts:
    @pytest.mark.parametrize("nvars", [0, 1, 3])
    def test_polynomial_sum_and_product(self, monkeypatch, nvars):
        # over the denominator 1 the numerators are added or multiplied
        # with no gcd; the checked constructor is the general path
        rng = random.Random(170 + nvars)
        pairs = []
        for _ in range(150):
            a = RatFun(rand_mpoly(rng, nvars, max_deg=3, max_terms=4))
            b = RatFun(rand_mpoly(rng, nvars, max_deg=3, max_terms=4))
            pairs += [(a, b), (a, -a)]
        calls = count_calls(monkeypatch, field, "_gcd_cofactors")
        results = [(a + b, a * b) for a, b in pairs]
        assert not calls
        monkeypatch.undo()
        for (a, b), (total, product) in zip(pairs, results):
            for got, expected in [
                    (total, RatFun(a.num * b.den + b.num * a.den,
                                   a.den * b.den)),
                    (product, RatFun(a.num * b.num, a.den * b.den))]:
                assert got == expected
                assert got.num.terms == expected.num.terms
                assert got.den.terms == expected.den.terms
        zero = [total for (a, b), (total, _) in zip(pairs, results)
                if b == -a]
        assert len(zero) >= 150
        assert all(z.is_zero() and z.den.is_one() for z in zero)

    def test_ratfun_times_one(self, monkeypatch):
        a = (t_() ** 2 + 1) / (2 * t_() - 3)
        one = const(1)
        calls = count_calls(monkeypatch, field, "_gcd_cofactors")
        assert a * one is a
        assert one * a is a
        assert a * 1 is a
        assert 1 * a is a
        assert not calls

    def test_mpoly_constant_factor(self):
        p = MPoly(2, {(2, 1): 3, (0, 1): -2, (0, 0): 5})
        for c in (1, 2, -3):
            k = MPoly.const(2, c)
            assert p * k == p.scale(c) == k * p
        assert p * MPoly.const(2, 1) is p
        assert MPoly.const(2, 1) * p is p
        assert p * MPoly.zero(2) == MPoly.zero(2) == MPoly.zero(2) * p

    def test_scale_keeps_integer_coefficients(self):
        p = MPoly(2, {(2, 1): 3, (0, 1): -2, (0, 0): 5})
        assert p.scale(Fraction(4, 2)) == p.scale(2)
        assert all(type(c) is int for c in p.scale(Fraction(2)).terms.values())
        with pytest.raises(ValueError, match="non-integer"):
            p.scale(Fraction(1, 2))

    def test_shared_operand_is_never_changed(self):
        p = MPoly(2, {(2, 1): 3, (0, 1): -2, (0, 0): 5})
        snapshot = dict(p.terms)
        q = p * MPoly.const(2, 1)
        assert q + p == p.scale(2)
        assert q - p == MPoly.zero(2)
        assert (q * q).divexact(q) == p
        assert q.divexact(p) == MPoly.const(2, 1)
        assert gcd_against_prs(q, p * p) == p
        assert p.terms == snapshot

    @pytest.mark.parametrize("nvars", [0, 1, 3])
    def test_constant_predicates(self, nvars):
        one, five = MPoly.const(nvars, 1), MPoly.const(nvars, 5)
        zero = MPoly.zero(nvars)
        assert one.is_one() and one.is_const() and one.const_value() == 1
        assert not five.is_one() and five.const_value() == 5
        assert zero.is_const() and not zero.is_one()
        assert zero.const_value() == 0
        if nvars:
            t = t_(nvars - 1, nvars).num
            assert not t.is_const() and t.const_value() == 0
            assert not (t + one).is_const() and (t + one).const_value() == 1


# The largest exponent of a variable after the first.
LIMIT = 2 ** 31 - 1


def rand_tuple_poly(rng, nvars, kind, offsets):
    """A tuple-keyed polynomial of the given kind: zero, a constant, one
    term, or two to four terms with exponents offsets[i] + 0..3."""
    if kind == "zero":
        return {}
    if kind == "const":
        return {(0,) * nvars: rng.choice([-4, -1, 1, 6])}
    terms = {}
    for _ in range(1 if kind == "single" else rng.randint(2, 4)):
        exps = tuple(o + rng.randint(0, 3) for o in offsets)
        terms[exps] = rng.choice([-5, -2, -1, 1, 3, 7])
    return terms


def rand_tuple_pair(rng, nvars):
    """(f, g, small) whose product fits: f's exponents may start at 10^12
    in t1 and at LIMIT - 6 in the other variables, g's at 0, so exponents
    of f*g reach LIMIT but never pass it; small when f's start at 0."""
    big = ([rng.choice([0, 10 ** 12])]
           + [rng.choice([0, LIMIT - 6]) for _ in range(nvars - 1)])[:nvars]
    kinds = ["zero", "const", "single", "poly", "poly"]
    f = rand_tuple_poly(rng, nvars, rng.choice(kinds), big)
    g = rand_tuple_poly(rng, nvars, rng.choice(kinds), [0] * nvars)
    return f, g, not any(big)


def tuple_partial(f, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in f.items() if e[i]}


class TestPackedKeys:
    """MPoly on packed monomial keys against the tuple-keyed oracle."""

    @pytest.mark.parametrize("nvars", [0, 1, 2, 3])
    def test_matches_the_tuple_oracle(self, nvars):
        rng = random.Random(190 + nvars)
        verdicts = Counter()
        for _ in range(300):
            f, g, small = rand_tuple_pair(rng, nvars)
            pf, pg = MPoly(nvars, f), MPoly(nvars, g)
            assert pf.exponents() == f and pg.exponents() == g
            product = tuple_mul(f, g)
            verdicts["limit"] += any(LIMIT in e[1:] for e in product)
            assert (pf * pg).exponents() == product
            assert (pg * pf).exponents() == product
            for p, terms in ((pf, f), (pg, g)):
                for i in range(nvars):
                    assert p.partial(i).exponents() == tuple_partial(terms, i)
                    assert p.degree_in(i) == max((e[i] for e in terms),
                                                 default=-1)
                if terms:
                    lead = max(terms)
                    assert p.lex_leading() == (lead, terms[lead])
            # f*g + 1 is divided only down to its constant term; the oracle
            # divides two unrelated operands only with small exponents,
            # since it walks the whole degree box
            one = (0,) * nvars
            inexact = {**product, one: product.get(one, 0) + 1}
            inexact = {e: c for e, c in inexact.items() if c}
            cases = [(product, g, f), (product, f, g), (inexact, g, None),
                     (inexact, f, None)]
            if small:
                cases += [(f, g, None), (g, f, None)]
            else:
                # _quotient stops at the corners of the quotient's box
                for num, den in ((f, g), (g, f)):
                    if den:
                        num, den = MPoly(nvars, num), MPoly(nvars, den)
                        start = time.perf_counter()
                        got = _quotient(num, den)
                        assert time.perf_counter() - start < 0.1
                        assert got is None or got * den == num
                        verdicts["unrelated", got is None] += 1
            for num, den, exact in cases:
                if not den:
                    continue
                expected = tuple_quotient(num, den)
                if exact is not None:
                    assert expected == exact
                    assert MPoly(nvars, num).divexact(MPoly(nvars, den)) \
                        .exponents() == exact
                got = _quotient(MPoly(nvars, num), MPoly(nvars, den))
                verdicts[expected is None] += 1
                assert (got is None) == (expected is None)
                assert got is None or got.exponents() == expected
        assert verdicts[True] > 100 and verdicts[False] > 100
        assert verdicts["limit"] > 10 or nvars < 2
        assert (verdicts["unrelated", True] > 50
                and verdicts["unrelated", False] > 10) or nvars < 1

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_inexact_division_stops_at_the_lower_corner(self, nvars):
        # every exponent of t1 in a quotient of (t1^(N+3) + t1^N)*m by
        # t1^2 + 1 is at least N, so the division stops at its second key
        # rather than walk N keys down
        m = MPoly(nvars, {(0,) + (LIMIT - 6,) * (nvars - 1): 1})
        f = MPoly(nvars, {(10 ** 12 + 3,) + (0,) * (nvars - 1): 1,
                          (10 ** 12,) + (0,) * (nvars - 1): 1}) * m
        h = MPoly(nvars, {(2,) + (0,) * (nvars - 1): 1, (0,) * nvars: 1})
        start = time.perf_counter()
        assert _quotient(f, h) is None
        assert _quotient(f * h, h) == f
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_gcd_cofactors_match_the_tuple_oracle(self, nvars):
        rng = random.Random(195 + nvars)
        kinds = ["const", "single", "poly"]
        for _ in range(100):
            # a planted common factor, small exponents: GCDHEU or the PRS
            h0, a, b = (rand_tuple_poly(rng, nvars, rng.choice(kinds),
                                        [0] * nvars) for _ in range(3))
            f, g = tuple_mul(h0, a), tuple_mul(h0, b)
            h, cf, cg = (p.exponents() for p in
                         _gcd_cofactors(MPoly(nvars, f), MPoly(nvars, g)))
            assert tuple_mul(h, cf) == f and tuple_mul(h, cg) == g
            assert tuple_quotient(h, h0) is not None
            assert h[max(h)] > 0
            # a single-term operand, exponents up to LIMIT: the closed form
            f, g, _ = rand_tuple_pair(rng, nvars)
            single = rand_tuple_poly(rng, nvars, "single", [0] * nvars)
            for f, g in ((f or single, single), (single, g or single)):
                h, cf, cg = (p.exponents() for p in
                             _gcd_cofactors(MPoly(nvars, f), MPoly(nvars, g)))
                low = tuple(map(min, zip(*f, *g)))
                content = math.gcd(*f.values(), *g.values())
                assert h == {low: content}
                assert tuple_mul(h, cf) == f and tuple_mul(h, cg) == g

    @pytest.mark.parametrize("nvars", [2, 3])
    def test_a_carry_raises(self, nvars):
        for i in range(1, nvars):
            def power(e):
                return MPoly(nvars, {tuple(e if j == i else 0
                                           for j in range(nvars)): 1})
            assert issubclass(ExponentOverflow, DiffAlgError)
            assert ExponentOverflow.exit_code == 1
            with pytest.raises(ExponentOverflow):
                power(LIMIT) * power(1)
            with pytest.raises(ExponentOverflow):
                power(2 ** 30) * power(2 ** 30)
            with pytest.raises(ExponentOverflow):
                power(LIMIT + 1)
            with pytest.raises(ExponentOverflow):
                power(1) ** (LIMIT + 1)
            assert (power(2 ** 30) * power(2 ** 30 - 1)).exponents() \
                == power(LIMIT).exponents()
        # t1's digit is the top one and has no limit
        t1 = t_(0, nvars).num ** (10 ** 12)
        square = (2 * 10 ** 12,) + (0,) * (nvars - 1)
        assert (t1 * t1).exponents() == {square: 1}


class TestNormalize:
    def test_constant_factor(self):
        two_t = MPoly(1, {(1,): 2})
        two = MPoly.const(1, 2)
        assert RatFun(two_t, two) == t_()
        # the gcd is taken over Z, integer content included
        assert mpoly_gcd(two_t, MPoly.const(1, 4)) == two

    def test_integer_coefficients_only(self):
        with pytest.raises(ValueError):
            MPoly(1, {(1,): Fraction(1, 2)})

    @pytest.mark.parametrize("nvars, exps, message", [
        (1, (1, 2, 3), "wrong length"),
        (2, (1,), "wrong length"),
        (0, (0,), "wrong length"),
        (2, (-1, 0), "negative exponent"),
        (1, (-3,), "negative exponent"),
    ])
    @pytest.mark.parametrize("coeff", [0, 1, -5])
    def test_every_key_is_checked(self, nvars, exps, coeff, message):
        # a zero coefficient is dropped, but not before its key is read
        with pytest.raises(ValueError, match=message):
            MPoly(nvars, {exps: coeff})

    def test_a_digit_past_its_guard_overflows_with_a_zero_coefficient(self):
        for coeff in (0, 1):
            with pytest.raises(ExponentOverflow):
                MPoly(2, {(0, 2 ** 31): coeff})

    def test_zero_coefficients_of_good_keys_are_dropped(self):
        p = MPoly(2, {(1, 0): 0, (0, 1): 3, (2, 2): 0})
        assert p == MPoly(2, {(0, 1): 3})
        assert p.exponents() == {(0, 1): 3}
        assert MPoly(1, {(4,): 0}).is_zero()

    def test_common_polynomial_factor(self):
        num = MPoly(1, {(2,): 1, (0,): -1})   # t^2 - 1
        den = MPoly(1, {(1,): 1, (0,): -1})   # t - 1
        result = RatFun(num, den)
        # independent oracle: exact polynomial division
        assert num.divexact(den) == MPoly(1, {(1,): 1, (0,): 1})
        assert result == t_() + 1

    def test_sign_convention(self):
        num = MPoly(1, {(1,): 1})
        den = MPoly.const(1, -1)
        assert RatFun(num, den) == -t_()

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            RatFun(MPoly.const(1, 1), MPoly.zero(1))

    def test_zero_is_zero_over_one(self):
        r = RatFun(MPoly.zero(1), MPoly(1, {(3,): 7}))
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
