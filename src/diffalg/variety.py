"""Differential polynomials, K-rational points, and the tangent-space pipeline.

A differential polynomial lives in K{y_1..y_n}: a sum of monomials in the
derivative indeterminates theta*y_i with base-field coefficients.  `DiffPoly`
is a `TermMap` (the sparse kernel of `ore.OrePoly`) keyed by monomials: a
monomial is a sorted tuple of ((component, theta exponents), power), which
the shared constructor checks (`DiffPoly._key`) and sorts.  Delta
acts on it by formal derivation, not by left multiplication; no command
derives a system, so formal derivation lives in the test suite, as an
oracle for linearization.  At a K-rational point every derivative of a
coordinate is induced by the field derivations, so evaluation is a
differential homomorphism.

`linearize_system` is the one route from equations and a point to the
linearized module: it checks the point and linearizes each equation there.
The CLI's `charset` and `dimpoly` complete its result; `tangent_pipeline`
also reports on it and, for m = 1, diagonalizes it and cross-checks the
class against the report.
"""

from __future__ import annotations

from math import comb, prod

from .errors import ConfigMismatch, DiffAlgError, PointNotOnVariety
from . import field
from .field import RatFun, _power
from .ore import TermMap, _acc, _as_ratfun
from .diffmodule import ModElement, characteristic_set, orderly_ranking
from .dimension import dimension_report
from .normalform import classify_presentation


class DiffPoly(TermMap):
    """Element of K{y_1,...,y_n}."""

    __slots__ = ()

    def _key(self, mono):
        for (comp, exps), power in mono:
            if not 0 <= comp < self.n:
                raise ValueError(f"variable index {comp} out of range")
            if len(exps) != self.config.m or power <= 0:
                raise ValueError("malformed monomial")
        return tuple(sorted(mono))

    def _unit(self):
        return ()

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, config, n):
        return cls(config, n)

    @classmethod
    def const(cls, config, n, value):
        return cls(config, n)._lift(value)

    @classmethod
    def indeterminate(cls, config, n, comp, exps=None):
        if exps is None:
            exps = (0,) * config.m
        return cls(config, n, {(((comp, tuple(exps)), 1),): 1})

    # -- ring structure (commutative) --------------------------------------

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _acc(terms, _merge_monomials(m1, m2), c1 * c2)
        return self._new(terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        return _power(self, k, DiffPoly.const(self.config, self.n, 1))

    def __repr__(self):
        return f"DiffPoly(n={self.n}, {self.terms!r})"

    # -- calculus ----------------------------------------------------------

    def partial_indeterminate(self, comp, exps):
        """Formal partial derivative with respect to the indeterminate."""
        key = (comp, tuple(exps))
        terms = {}
        for mono, coeff in self.terms.items():
            entries = dict(mono)
            power = entries.get(key)
            if not power:
                continue
            if power == 1:
                del entries[key]
            else:
                entries[key] = power - 1
            _acc(terms, tuple(sorted(entries.items())), coeff * power)
        return self._new(terms)


def _merge_monomials(m1, m2):
    entries = dict(m1)
    for key, power in m2:
        entries[key] = entries.get(key, 0) + power
    return tuple(sorted(entries.items()))


def _power_bits(x, k):
    """An upper bound on the bits of the integers of x**k, x a RatFun;
    `eval_diffpoly` takes no power past `field.MAX_BITS` of them.

    Numerator and denominator are raised apart.  A polynomial of T terms
    with coefficients of at most b bits has in its k-th power coefficients
    of at most k*(b + log2 T) bits, and at most C(k + T - 1, T - 1) terms,
    nor more than the box of exponents prod_i (k*deg_i + 1): for one term
    that is k*b bits, exactly what the integers gain.
    """
    bits = 0
    for p in (x.num, x.den):
        coeffs = p.terms.values()
        size = len(coeffs)
        top = max(c.bit_length() for c in coeffs) + (size - 1).bit_length()
        if size > 1:
            top *= min(comb(k + size - 1, size - 1),
                       prod(k * p.degree_in(i) + 1 for i in range(p.nvars)))
        bits += k * top
    return bits


class VarietyPoint:
    """K-rational point: n base-field coordinates."""

    __slots__ = ("config", "coordinates")

    def __init__(self, config, coordinates):
        self.config = config
        self.coordinates = tuple(_as_ratfun(c, config) for c in coordinates)

    @property
    def n(self):
        return len(self.coordinates)

    def derivative_of_coordinate(self, comp, exps):
        """delta^exps of coordinate comp; it stops at a zero.

        Every derivative on the way is kept (in `RatFun._derived`).  A
        polynomial's derivatives vanish past its degree, but a quotient's
        grow with each one: the bits of their integers are counted as
        they are built, and past `field.MAX_BITS` of them it raises.
        """
        a, bits = self.coordinates[comp], 0
        for i, k in enumerate(exps):
            for _ in range(k):
                if a.is_zero():
                    return a
                a = a.derive(i)
                if a.den.is_const():
                    continue
                bits += sum(c.bit_length() for p in (a.num, a.den)
                            for c in p.terms.values())
                if bits > field.MAX_BITS:
                    raise DiffAlgError(
                        f"the derivatives of a coordinate of the point up "
                        f"to order {sum(exps)} need more than the limit "
                        f"of {field.MAX_BITS} bits of integers")
        return a

    def __repr__(self):
        return f"VarietyPoint({self.coordinates!r})"


def eval_diffpoly(f, x):
    """Substitute theta*y_i -> the theta-derivative of x_i, exactly."""
    if f.n != x.n or f.config != x.config:
        raise ConfigMismatch("polynomial and point of different shapes")
    result = RatFun.from_const(f.config.v, 0)
    for mono, coeff in f.terms.items():
        value = coeff
        for (comp, exps), power in mono:
            base = x.derivative_of_coordinate(comp, exps)
            # the powers of 0, 1 and -1 gain no bits
            if power > 1 and not (base.den.is_one() and base.num.is_const()
                                  and abs(base.num.const_value()) <= 1):
                bits = _power_bits(base, power)
                if bits > field.MAX_BITS:
                    raise DiffAlgError(
                        f"a value at the point raised to the power {power} "
                        f"may need {bits} bits of integers; the limit is "
                        f"{field.MAX_BITS} bits")
            value = value * base ** power
        result = result + value
    return result


def linearize_at_point(f, x):
    """The differential df at x: coefficient of theta*e_i is df/d(theta*y_i)(x)."""
    if f.n != x.n or f.config != x.config:
        raise ConfigMismatch("polynomial and point of different shapes")
    keys = {key for mono in f.terms for key, _ in mono}
    terms = {}
    for key in keys:
        if value := eval_diffpoly(f.partial_indeterminate(*key), x):
            terms[key] = value
    return ModElement.zero(f.config, f.n)._new(terms)


def linearize_system(eqs, x):
    """The linearized module at x: the differential of each equation, once
    every equation is checked to vanish at x (PointNotOnVariety if one
    does not)."""
    eqs = list(eqs)
    if not eqs:
        raise ValueError("need at least one equation")
    for idx, f in enumerate(eqs):
        value = eval_diffpoly(f, x)
        if value:
            from .parsing import ratfun_str     # parsing imports this module
            raise PointNotOnVariety(idx, value, ratfun_str(value, f.config))
    return [linearize_at_point(f, x) for f in eqs]


def tangent_pipeline(eqs, x, rk=None):
    """Linearize at x, complete to a CharSet, and report (phi, d, k).

    The report always counts an orderly charset, completed apart when rk
    is an elimination ranking.  The TangentClass is computed only for
    m = 1 (the operator ring is Euclidean there); callers with m >= 2
    receive None in that slot.  For m = 1 the class is cross-checked
    against the report: DiffAlgError unless d equals the differential
    dimension and k <= B.
    """
    lins = linearize_system(eqs, x)
    orderly = orderly_ranking(x.n)
    charset = characteristic_set(lins, rk or orderly)
    report = dimension_report(charset if charset.ranking.kind == "orderly"
                              else characteristic_set(lins, orderly))
    tangent = None
    if x.config.m == 1:
        tangent, _ = classify_presentation(x.config, lins, x.n)
        # both read the same module: the free ranks agree and the torsion
        # fits below the leaders
        if (tangent.d != report.diff_dimension
                or tangent.k > report.below_leader_count):
            raise DiffAlgError(
                f"tangent class K^{tangent.d} x C^{tangent.k} contradicts "
                f"the dimension report (d = {report.diff_dimension}, "
                f"B = {report.below_leader_count})")
    return charset, report, tangent
