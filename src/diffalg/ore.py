"""The skew polynomial ring K[Delta] with commutation delta_i * a = a*delta_i + da/dt_i.

`TermMap` is the sparse kernel shared by `OrePoly`, `diffmodule.ModElement`
and `variety.DiffPoly`: a map from keys to nonzero base-field coefficients,
with addition, negation, left scaling, equality and hashing written once,
and the left action of delta_i for the classes whose keys carry derivation
exponents.  An `OrePoly` key is a derivation monomial, an exponent tuple of
length m.  Products are computed by iterated single-delta commutation over
one shared shift chain (`_left_mul`), for operators and module elements
alike; the closed binomial formula lives in the test suite as an
independent oracle.  A scalar times an operator only scales coefficients,
since no delta stands to its left.  Powers use repeated squaring
(`field._power`).  A term that cancels by construction (in reduction,
S-pairs, division, elimination) is dropped uncomputed, by `TermMap.cancel`,
and a difference is the same call with no term to drop.

The one checked way in is the constructor `TermMap(config, n, terms)`
(`OrePoly(config, terms)` passes n = None): it checks every key by the
class's `_key`, then takes its coefficient, an int or a RatFun, the only
scalars, and drops zeros.  A scalar operand of an operator enters by
`_lift`, which takes the same two types; a `fractions.Fraction` is refused
with TypeError.  A value built from checked values is built trusted by
`TermMap._new`, as every result here is, and as `OrePoly.one` is.
`TermMap.scalar()` reads the base-field element an operator or a
differential polynomial is, for division.
"""

from __future__ import annotations

from .errors import ConfigMismatch, DivisionByZero, UnsupportedForPartial
from .field import RatFun, _power


def monomial_ord(exps):
    return sum(exps)


def _raise_exponent(exps, i, k=1):
    return exps[:i] + (exps[i] + k,) + exps[i + 1:]


class TermMap:
    """Sparse map from keys to nonzero RatFun coefficients over one ring.

    The ring is fixed by `config` and the rank `n` (None for an operator).
    The constructor is the one checked way in: each key passes the
    subclass's `_key`, and each coefficient must be an int or a RatFun
    over the config's variables.  Subclasses set the hooks below.
    """

    __slots__ = ("config", "n", "terms")

    # key with its delta_i exponent raised by one; None for a ring on
    # which Delta does not act by left multiplication
    _raise_delta = None

    def __init__(self, config, n, terms=None):
        self.config = config
        self.n = n
        self.terms = clean = {}
        for key, coeff in (terms or {}).items():
            key = self._key(key)
            if coeff := _as_ratfun(coeff, config):
                clean[key] = coeff

    def _new(self, terms):
        """Element of this ring from terms already nonzero and well formed."""
        out = object.__new__(type(self))
        out.config = self.config
        out.n = self.n
        out.terms = terms
        return out

    def _unit(self):
        """The key of the ring's unit; None for a module, which has none."""
        return None

    def _lift(self, value):
        """A base-field scalar as an element of this ring, or NotImplemented."""
        unit = self._unit()
        if unit is None:
            return NotImplemented
        value = _as_ratfun(value, self.config)
        return self._new({unit: value} if value else {})

    def _coerce(self, other):
        if type(other) is type(self):
            return other
        if isinstance(other, (int, RatFun)):
            return self._lift(other)
        return NotImplemented

    def _check(self, other):
        if self.config != other.config or self.n != other.n:
            raise ConfigMismatch(
                f"{type(self).__name__} operands over different rings")

    def is_zero(self):
        return not self.terms

    def scalar(self):
        """The base-field element that self is: its coefficient at the unit
        key, zero for the empty map; None when another key holds a
        coefficient or self is a module element."""
        unit = self._unit()
        if unit is None or self.terms.keys() - {unit}:
            return None
        return self.terms.get(unit) or RatFun.from_const(self.config.v, 0)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _acc(terms, key, coeff)
        return self._new(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.cancel(None, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.cancel(None, self)

    def scale_left(self, c):
        """Left multiplication by a base-field scalar."""
        c = _as_ratfun(c, self.config)
        if not c:
            return self._new({})
        return self._new({k: c * a for k, a in self.terms.items()})

    def __truediv__(self, other):
        """Right multiplication by the inverse of a base-field element."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        divisor = other.scalar()
        if divisor is None:
            raise ValueError("can only divide by a base-field element")
        return self * divisor.inverse()

    def cancel(self, key, s, c=None):
        """self - c*s, c = 1 if None; drops the term at key, which cancels
        (no key: a plain difference)."""
        self._check(s)
        terms = dict(self.terms)
        terms.pop(key, None)
        neg = None if c is None or c.is_one() else -c
        for k, a in s.terms.items():
            if k != key:
                _acc(terms, k, -a if neg is None else neg * a)
        return self._new(terms)

    # -- delta action ----------------------------------------------------

    def apply_delta(self, i):
        """Left multiplication by delta_i via the commutation rule."""
        raise_delta = self._raise_delta
        if raise_delta is None:
            raise TypeError(f"Delta does not act on {type(self).__name__}")
        self.config.check_derivation(i)
        derive = i < self.config.v
        terms = {}
        for key, coeff in self.terms.items():
            _acc(terms, raise_delta(key, i), coeff)
            if derive:
                der = coeff.derive(i)
                if der:
                    _acc(terms, key, der)
        return self._new(terms)

    def apply_theta(self, exps, built=None):
        """Left multiplication by delta^exps (a tuple), by one `_shifts`."""
        return _shifts(self, (exps,), built)[exps]

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.config, self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)


class OrePoly(TermMap):
    """Element of K[Delta]: derivation-monomial exponents -> RatFun."""

    __slots__ = ()

    _raise_delta = staticmethod(_raise_exponent)

    def __init__(self, config, terms=None):
        super().__init__(config, None, terms)

    def _key(self, exps):
        if len(exps) != self.config.m:
            raise ValueError("derivation monomial of wrong length")
        return exps

    def _unit(self):
        return (0,) * self.config.m

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, config):
        return cls(config)

    @classmethod
    def one(cls, config):
        return cls(config)._new({(0,) * config.m:
                                 RatFun.from_const(config.v, 1)})

    # -- views -----------------------------------------------------------

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

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ore_mul(self, other)

    def __rmul__(self, other):
        """A base-field scalar times self: left scaling, no commutation."""
        if isinstance(other, (RatFun, int)):
            return self.scale_left(other)
        return NotImplemented

    def __pow__(self, k):
        return _power(self, k, OrePoly.one(self.config))

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
    if isinstance(value, int):
        return RatFun.from_const(config.v, value)
    raise TypeError(f"cannot use {value!r} as a base-field coefficient")


def ore_mul(f, g):
    """Exact product in K[Delta]."""
    if f.config != g.config:
        raise ConfigMismatch("operators over different configurations")
    if g.is_one():
        return f
    if f.is_one():
        return g
    return _left_mul(f, g)


def _left_mul(f, g):
    """f * g for an operator f and g an operator or a module element."""
    shifts = _shifts(g, f.terms)
    terms = {}
    for exps, coeff in f.terms.items():
        for key, a in shifts[exps].terms.items():
            _acc(terms, key, coeff * a)
    return g._new(terms)


def _shifts(g, keys, built=None):
    """{theta: delta^theta * g} for each theta in keys.

    Each theta is reached from the nearest key below it on the chain that
    lowers the last nonzero exponent; keys are visited in increasing lex
    order, so that key is already built and for m = 1 the whole product
    costs max(k) applications of delta instead of sum(k).  `built`, when
    given, is a dict of shifts of g kept from earlier calls; every node of
    each walked chain is stored in it, so a caller that shifts one divisor
    many times pays each application of delta once.  When every
    coefficient of g is a constant, delta^theta * g only shifts its keys.
    """
    if g._raise_delta is None:
        raise TypeError(f"Delta does not act on {type(g).__name__}")
    if built is None:
        built = {}
    built.setdefault((0,) * g.config.m, g)
    if all(c.is_const() for c in g.terms.values()):
        raise_delta = g._raise_delta
        for theta in keys:
            terms = {}
            for key, c in g.terms.items():
                for i, k in enumerate(theta):
                    if k:
                        key = raise_delta(key, i, k)
                terms[key] = c
            built[theta] = g._new(terms)
        return built
    for theta in sorted(keys):
        path = []
        cur = theta
        while cur not in built:
            i = max(j for j, k in enumerate(cur) if k)
            path.append((cur, i))
            cur = cur[:i] + (cur[i] - 1,) + cur[i + 1:]
        shifted = built[cur]
        for node, i in reversed(path):
            shifted = built[node] = shifted.apply_delta(i)
    return built


def ore_divmod(f, g, side="right"):
    """Euclidean division in K[delta] (m = 1).

    side="right": f = q*g + r;  side="left": f = g*q + r;  deg r < deg g.
    Each step drops r's leading term, which cancels, uncomputed.
    """
    if f.config.m != 1:
        raise UnsupportedForPartial("Euclidean division needs m = 1")
    if g.is_zero():
        raise DivisionByZero("division by the zero operator")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    dg = g.degree()
    _, lc_g = g.leading()
    quotient, r, chain = {}, f, {}
    while not r.is_zero() and r.degree() >= dg:
        (dr,), lc_r = r.leading()
        k = dr - dg
        c = quotient[(k,)] = lc_r if lc_g.is_one() else lc_r / lc_g
        if side == "right":
            r = r.cancel((dr,), g.apply_theta((k,), chain), c)
        else:
            r = r.cancel((dr,), ore_mul(g, g._new({(k,): c})))
    return g._new(quotient), r
