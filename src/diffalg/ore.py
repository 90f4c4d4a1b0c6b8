"""The skew polynomial ring K[Delta] with commutation delta_i * a = a*delta_i + da/dt_i.

Operators are sparse maps from derivation monomials (exponent tuples of
length m) to base-field coefficients.  Products are computed by iterated
single-delta commutation; the closed binomial formula lives in the test
suite as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigMismatch, DivisionByZero, UnsupportedForPartial
from .field import RatFun


def monomial_ord(exps):
    return sum(exps)


class OrePoly:
    """Element of K[Delta]: derivation-monomial exponents -> RatFun."""

    __slots__ = ("config", "terms", "_hash")

    def __init__(self, config, terms=None):
        self.config = config
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != config.m:
                    raise ValueError("derivation monomial of wrong length")
                coeff = _as_ratfun(coeff, config)
                if coeff:
                    clean[exps] = coeff
        self.terms = clean
        self._hash = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, config):
        return cls(config)

    @classmethod
    def one(cls, config):
        return cls.from_scalar(config, 1)

    @classmethod
    def from_scalar(cls, config, value):
        value = _as_ratfun(value, config)
        return cls(config, {(0,) * config.m: value})

    @classmethod
    def delta(cls, config, i):
        config.check_derivation(i)
        exps = tuple(1 if j == i else 0 for j in range(config.m))
        return cls(config, {exps: RatFun.from_const(config.v, 1)})

    @classmethod
    def monomial(cls, config, exps, coeff=1):
        return cls(config, {tuple(exps): _as_ratfun(coeff, config)})

    # -- views -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        return all(not any(e) for e in self.terms)

    def scalar_value(self):
        if self.is_zero():
            return RatFun.from_const(self.config.v, 0)
        return self.terms[(0,) * self.config.m]

    def degree(self):
        """Total order; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(monomial_ord(e) for e in self.terms)

    def leading(self):
        """(exponents, coefficient) of the maximal term (ord, then lex)."""
        exps = max(self.terms, key=lambda e: (monomial_ord(e), e))
        return exps, self.terms[exps]

    def is_one(self):
        c = self.terms.get((0,) * self.config.m)
        return len(self.terms) == 1 and c is not None and c.is_one()

    def is_unit(self):
        return not self.is_zero() and self.degree() == 0

    # -- additive structure ------------------------------------------------

    def _check(self, other):
        if self.config != other.config:
            raise ConfigMismatch("operators over different configurations")

    def __add__(self, other):
        other = _coerce_ore(other, self.config)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            _acc(terms, exps, coeff)
        return OrePoly(self.config, terms)

    __radd__ = __add__

    def __neg__(self):
        return OrePoly(self.config, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce_ore(other, self.config)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale_left(self, c):
        """Left multiplication by a base-field scalar."""
        c = _as_ratfun(c, self.config)
        if not c:
            return OrePoly.zero(self.config)
        return OrePoly(self.config, {e: c * a for e, a in self.terms.items()})

    # -- multiplicative structure -------------------------------------------

    def apply_delta(self, i):
        """Left multiplication by delta_i via the commutation rule."""
        self.config.check_derivation(i)
        terms = {}
        for exps, coeff in self.terms.items():
            shifted = list(exps)
            shifted[i] += 1
            shifted = tuple(shifted)
            _acc(terms, shifted, coeff)
            der = coeff.derive(i) if i < self.config.v else None
            if der:
                _acc(terms, exps, der)
        return OrePoly(self.config, terms)

    def __mul__(self, other):
        other = _coerce_ore(other, self.config)
        if other is NotImplemented:
            return NotImplemented
        return ore_mul(self, other)

    def __rmul__(self, other):
        other = _coerce_ore(other, self.config)
        if other is NotImplemented:
            return NotImplemented
        return ore_mul(other, self)

    def __truediv__(self, other):
        """Right multiplication by the inverse of a scalar operator."""
        other = _coerce_ore(other, self.config)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero operator")
        if not other.is_scalar():
            raise ValueError("can only divide by a scalar operator")
        return ore_mul(self, OrePoly.from_scalar(
            self.config, other.scalar_value().inverse()))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of an operator")
        result = OrePoly.one(self.config)
        for _ in range(k):
            result = ore_mul(result, self)
        return result

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        other = _coerce_ore(other, self.config)
        if other is NotImplemented:
            return NotImplemented
        return self.config == other.config and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.config, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"OrePoly({self.terms!r})"


def _acc(terms, key, value):
    c = terms.get(key)
    c = value if c is None else c + value
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def _as_ratfun(value, config):
    if isinstance(value, RatFun):
        if value.nvars != config.v:
            raise ConfigMismatch("coefficient over a different variable count")
        return value
    if isinstance(value, (int, Fraction)):
        return RatFun.from_const(config.v, value)
    raise TypeError(f"cannot use {value!r} as a base-field coefficient")


def _coerce_ore(value, config):
    if isinstance(value, OrePoly):
        return value
    if isinstance(value, (int, Fraction, RatFun)):
        return OrePoly.from_scalar(config, _as_ratfun(value, config))
    return NotImplemented


def ore_mul(f, g):
    """Exact product in K[Delta]."""
    if f.config != g.config:
        raise ConfigMismatch("operators over different configurations")
    if g.is_one():
        return f
    if f.is_one():
        return g
    shifts = _shifts(g, f.terms)
    terms = {}
    for exps, coeff in f.terms.items():
        for e, a in shifts[exps].terms.items():
            _acc(terms, e, coeff * a)
    return OrePoly(f.config, terms)


def _shifts(g, keys):
    """{theta: delta^theta * g} for each theta in keys.

    Each theta is reached from the nearest key below it on the chain that
    lowers the last nonzero exponent; keys are visited in increasing lex
    order, so that key is already built and for m = 1 the whole product
    costs max(k) applications of delta instead of sum(k).
    """
    built = {(0,) * g.config.m: g}
    for theta in sorted(keys):
        path = []
        cur = theta
        while cur not in built:
            i = max(j for j, k in enumerate(cur) if k)
            path.append(i)
            cur = cur[:i] + (cur[i] - 1,) + cur[i + 1:]
        shifted = built[cur]
        for i in reversed(path):
            shifted = shifted.apply_delta(i)
        built[theta] = shifted
    return built


def ore_divmod(f, g, side="right"):
    """Euclidean division in K[delta] (m = 1).

    side="right": f = q*g + r;  side="left": f = g*q + r;  deg r < deg g.
    """
    if f.config.m != 1:
        raise UnsupportedForPartial("Euclidean division needs m = 1")
    if g.is_zero():
        raise DivisionByZero("division by the zero operator")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    config = f.config
    dg = g.degree()
    _, lc_g = g.leading()
    q = OrePoly.zero(config)
    r = f
    while not r.is_zero() and r.degree() >= dg:
        dr = r.degree()
        _, lc_r = r.leading()
        step = OrePoly.monomial(config, (dr - dg,), lc_r / lc_g)
        q = q + step
        if side == "right":
            r = r - ore_mul(step, g)
        else:
            r = r - ore_mul(g, step)
    return q, r


def ore_apply(f, a):
    """Action of the operator f on a base-field element a."""
    result = RatFun.from_const(f.config.v, 0)
    for exps, coeff in f.terms.items():
        value = _as_ratfun(a, f.config)
        for i, k in enumerate(exps):
            for _ in range(k):
                value = value.derive(i)
        result = result + coeff * value
    return result
