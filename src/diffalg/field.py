"""Exact arithmetic in the base field K = Q(t1,...,tv) with partial derivations.

Polynomials are sparse over the integers, in Z[t1..tv].  An element of K is
a numerator/denominator pair of them, coprime in Z[t] (integer content
included) with the denominator's lex-leading coefficient positive.  That
form is unique, so equal values have identical representations and compare
bit-identically.  The familiar form with a monic denominator is built only
for output (`parsing.ratfun_str`).

Every field operation but the sum and the product of two polynomials
(denominator 1) ends in a gcd over Z[t], taken together with both exact
cofactors.  The integer content comes out first; an operand that is then
a constant or a single term c*t^a has the gcd in closed form, the content
times the largest monomial dividing both operands.  Every other gcd is the
heuristic gcd GCDHEU of Char, Geddes and Gonnet (1989): evaluate the main
variable at an integer xi, take the gcd of the images, rebuild a candidate
from its symmetric base-xi digits and accept its primitive part only if it
divides both inputs exactly, which the theorem behind GCDHEU makes
sufficient for xi >= 2*min(|f|, |g|) + 2.  The exact quotients of that
check are the cofactors.  Inputs in one variable run on dense ascending
integer lists: Horner evaluation, the digits straight into a list and one
exact dense division per cofactor.  Inputs in more
variables take the sparse recursive form (Liao and Fateman, 1995): the
images are gcds in one variable fewer, so the recursion ends in the dense
level.  Both levels take their points from one schedule, `_points` (see
the comment above `_HEU_TRIES`).  When it runs out, or past the degree
guard, the primitive pseudo-remainder sequence (PRS) takes over; it is
also the tests' oracle.  The PRS recurses on the main variable for every
variable count, so its work is the steps of its pseudo-divisions, few on
sparse inputs of huge degree; a pseudo-division past MAX_PRS_STEPS steps,
or past MAX_BITS bits of leading coefficients multiplied in, raises
DegreeTooLarge.  MAX_BITS is the one size limit on the integers of the
algebra: GCDHEU's images, the PRS's leading coefficients and, in
`variety`, a power of a value at a point.

The scalars that enter the algebra are ints and RatFuns, nothing else:
`RatFun.from_const` takes an int, the arithmetic takes an int or a RatFun
operand, and a quotient such as 1/2 is `RatFun.from_const(v, 1) / 2`.
Only `MPoly`'s checked constructor takes other integer-valued numbers.

Products by a unit cost nothing: an MPoly product with a constant factor
scales the other factor (returns it when the constant is 1), and a RatFun
product with the factor 1 returns the other factor.  MPoly and RatFun
values are never changed in place, so results may share them.

A monomial t1^e1 ... tv^ev is one non-negative integer key (Kronecker
substitution, the packed exponent vectors of Monagan and Pearce, 2007):
each exponent has a 32-bit digit, t1's the most significant, so integer
order is lex order and the constant term is key 0.  A product of monomials
is one integer addition, and the exponent of t_i is read by a shift and a
mask.  Every digit below the top one holds at most 2^31 - 1, so its top bit
is a free guard: a product or interpolation that sets a guard bit (an
exponent of 2^31 or more in any variable but t1) raises ExponentOverflow
rather than carry into the neighbouring digit, and a subtraction of keys
that borrows sets a guard bit or goes negative, which is the divisibility
test of exact division.  t1 has no neighbour above, so its exponent is
unbounded.  `MPoly(nvars, {exponent tuple: c})` and `MPoly.exponents()`
are the tuple form at the edges.
"""

from __future__ import annotations

from functools import cache, reduce
from math import gcd as _int_gcd, isqrt
from operator import or_

from .errors import (BadDerivation, DegreeTooLarge, DivisionByZero,
                     ExponentOverflow)
from .record import FrozenRecord


class DiffFieldConfig(FrozenRecord):
    """Base field layout: m commuting derivations over Q(t1..tv), v <= m.

    Derivation i acts as d/dt_i for i < num_vars and as zero otherwise,
    so a pure constants field with nonzero derivation set is allowed.
    Indices are 0-based throughout the Python API.
    """

    __slots__ = _fields = ("num_derivations", "num_vars")

    def __init__(self, num_derivations: int, num_vars: int):
        if num_derivations < 1:
            raise ValueError("need at least one derivation")
        if not 0 <= num_vars <= num_derivations:
            raise ValueError("need 0 <= num_vars <= num_derivations")
        self._set_fields(num_derivations, num_vars)

    # Term maps compare configs (with !=) on every operation, nearly always
    # one object with itself, since a problem's values share the config its
    # reader built (the parser's `_symbols` cache holds exponent tuples and
    # packed keys, no values), so both tests check identity first, then the
    # two ints, with no tuple built.
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return (self.num_derivations == other.num_derivations
                    and self.num_vars == other.num_vars)
        return NotImplemented

    def __ne__(self, other):
        if self is other:
            return False
        if other.__class__ is self.__class__:
            return (self.num_derivations != other.num_derivations
                    or self.num_vars != other.num_vars)
        return NotImplemented

    def __hash__(self):
        return hash((self.num_derivations, self.num_vars))

    @property
    def m(self):
        return self.num_derivations

    @property
    def v(self):
        return self.num_vars

    def check_derivation(self, i):
        if not 0 <= i < self.num_derivations:
            raise BadDerivation(f"derivation index {i} not in [0, {self.m})")


# Bits of one exponent digit of a packed monomial; a digit below the top
# one stays below _GUARD, its top bit.
_BITS = 32
_MASK = (1 << _BITS) - 1
_GUARD = 1 << (_BITS - 1)


class MPoly:
    """Sparse polynomial in Z[t1..tv]: packed monomial key -> nonzero int."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        """`terms` maps exponent tuples of length nvars to integers."""
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                # every key is checked, whatever its coefficient
                if len(exps) != nvars:
                    raise ValueError("exponent vector of wrong length")
                key = _pack(exps)
                if coeff:
                    if int(coeff) != coeff:
                        raise ValueError(f"non-integer coefficient {coeff}")
                    clean[key] = int(coeff)
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, value):
        if type(value) is not int:
            return cls(nvars, {(0,) * nvars: value})
        return _poly(nvars, {0: value} if value else {})

    # -- predicates and views ------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and 0 in terms)

    def is_one(self):
        terms = self.terms
        return len(terms) == 1 and terms.get(0) == 1

    def const_value(self):
        return self.terms.get(0, 0)

    def exponents(self):
        """The terms keyed by exponent tuples: {(e1, ..., ev): coefficient}."""
        nvars = self.nvars
        return {_unpack(e, nvars): c for e, c in self.terms.items()}

    def lex_leading(self):
        """(exponents, coefficient) of the lex-maximal term."""
        key = max(self.terms)
        return _unpack(key, self.nvars), self.terms[key]

    def degree_in(self, i):
        if self.is_zero():
            return -1
        shift, mask = _digit(self.nvars, i)
        return max(e >> shift & mask for e in self.terms)

    def total_degree(self):
        """The largest total degree of a term, -1 for zero.  A key's digits
        sum to its degree; below t1's digit that sum is read as the key
        modulo 2^32 - 1, exact up to three variables and past them while
        the other exponents sum to less than 2^32 - 1."""
        shift = _BITS * max(self.nvars - 1, 0)
        low = (1 << shift) - 1
        return max(((e >> shift) + (e & low) % _MASK for e in self.terms),
                   default=-1)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for e, coeff in other.terms.items():
            c = terms.get(e, 0) + coeff
            if c:
                terms[e] = c
            else:
                del terms[e]
        return _poly(self.nvars, terms)

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        # a constant factor scales the other one; a factor 1 returns it
        left, right = self.terms, other.terms
        if len(right) == 1 and 0 in right:
            return _scaled(self, right[0])
        if len(left) == 1 and 0 in left:
            return _scaled(other, left[0])
        terms = {}
        get = terms.get
        right = list(right.items())
        for e1, c1 in left.items():
            for e2, c2 in right:
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
        return _carry_free(self.nvars, {e: c for e, c in terms.items() if c})

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, k):
        """Multiply every coefficient by the integer k."""
        if type(k) is not int:
            return MPoly(self.nvars, {e: c * k
                                      for e, c in self.exponents().items()})
        return _scaled(self, k) if k else _poly(self.nvars, {})

    def __pow__(self, k):
        return _power(self, k, MPoly.const(self.nvars, 1))

    def partial(self, i):
        """Derivative with respect to t_i (0-based)."""
        shift, mask = _digit(self.nvars, i)
        unit = 1 << shift
        terms = {}
        for e, coeff in self.terms.items():
            k = e >> shift & mask
            if k:
                terms[e - unit] = coeff * k
        return _poly(self.nvars, terms)

    # -- exact division and gcd ----------------------------------------

    def divexact(self, other):
        """Quotient self/other in Z[t], assuming the division is exact."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        quo = _quotient(self, other)
        if quo is None:
            raise ArithmeticError("inexact polynomial division")
        return quo

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.exponents()!r})"


def _digit(nvars, i):
    """(shift, mask) that read the exponent of t_i (0-based) from a key:
    `key >> shift & mask`.  t1's digit is the top one, with no mask."""
    return _BITS * (nvars - 1 - i), (_MASK if i else -1)


def _pack(exps):
    """The key of the monomial with the exponent tuple exps."""
    key = 0
    for i, e in enumerate(exps):
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if i and e >= _GUARD:
            raise ExponentOverflow()
        key = key << _BITS | e
    return key


def _unpack(key, nvars):
    """The exponent tuple of a key."""
    digits = (_digit(nvars, i) for i in range(nvars))
    return tuple(key >> shift & mask for shift, mask in digits)


@cache
def _guards(nvars):
    """The guard bits of a key: the top bit of every digit but t1's."""
    return ((1 << _BITS * max(nvars - 1, 0)) - 1) // _MASK * _GUARD


def _carry_free(nvars, terms):
    """_poly(nvars, terms), or ExponentOverflow when a key has a guard bit
    set: an exponent of 2^31 or more in a digit that has a neighbour."""
    if nvars > 1 and reduce(or_, terms, 0) & _guards(nvars):
        raise ExponentOverflow()
    return _poly(nvars, terms)


def _power(x, k, one):
    """x**k by repeated squaring; one is the identity of x's ring.

    The base is squared only while bits of k remain, so the last and
    largest square is never formed in vain.
    """
    if k < 0:
        raise ValueError(f"negative power of {type(x).__name__}")
    result = one
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result


def _poly(nvars, terms):
    """MPoly over a dict of nonzero ints, taken as is (no checks, no copy).

    No operation changes an MPoly's `terms` in place once it is built, so
    results may share a dict with an operand (`p * 1` is `p` itself).
    """
    p = object.__new__(MPoly)
    p.nvars = nvars
    p.terms = terms
    return p


def _scaled(p, k):
    """p times the nonzero integer k; p itself when k is 1."""
    if k == 1:
        return p
    return _poly(p.nvars, {e: c * k for e, c in p.terms.items()})


def _lead_coeff(p):
    """The lex-leading coefficient of a nonzero p."""
    return p.terms[max(p.terms)]


def _sign(p):
    """Sign of the lex-leading coefficient of a nonzero p."""
    return -1 if _lead_coeff(p) < 0 else 1


def _lex_positive(p):
    """p or -p, whichever has a positive lex-leading coefficient."""
    return -p if p.terms and _lead_coeff(p) < 0 else p


def _div_int(p, k):
    """p with every coefficient divided by the integer k, which divides all."""
    if k == 1:
        return p
    return _poly(p.nvars, {e: c // k for e, c in p.terms.items()})


def _shifted_down(p, low):
    """p divided by the monomial with key low, which divides every term."""
    if not low:
        return p
    return _poly(p.nvars, {e - low: c for e, c in p.terms.items()})


def _norm(p):
    """Largest absolute value of a coefficient of a nonzero p."""
    return max(map(abs, p.terms.values()))


def _corners(keys, nvars):
    """(low, top): the keys of the monomials whose exponent of each
    variable is the least, and the largest, of that exponent over keys,
    which holds at least one key.  t1's digit is the top one, so its two
    exponents are those of the least and the largest key."""
    shift = _BITS * max(nvars - 1, 0)
    low, top = min(keys) >> shift << shift, max(keys) >> shift << shift
    while shift:
        shift -= _BITS
        digits = [e >> shift & _MASK for e in keys]
        low |= min(digits) << shift
        top |= max(digits) << shift
    return low, top


def _borrows(a, b, guards):
    """True unless the monomial with key b divides the one with key a: a
    digit of a below b's borrows, which sets its guard bit or, at the top
    digit, makes a - b negative."""
    d = a - b
    return d < 0 or d & guards


def _quotient(f, h):
    """Exact quotient f/h in Z[t] for nonzero h, or None if h does not
    divide f."""
    if not f.terms:
        return f
    # f = h*q gives both deg_i q = deg_i f - deg_i h and the same for the
    # lowest exponents, for every variable: every quotient key lies in the
    # box between those corners, which bounds the steps of a division that
    # turns out inexact
    guards = _guards(f.nvars)
    (low_f, top_f), (low_h, top_h) = (_corners(p.terms, p.nvars)
                                      for p in (f, h))
    if _borrows(top_f, top_h, guards) or _borrows(low_f, low_h, guards):
        return None
    top, low = top_f - top_h, low_f - low_h
    lead_e = max(h.terms)
    lead_c = h.terms[lead_e]
    tail = [(e, c) for e, c in h.terms.items() if e != lead_e]
    rem = dict(f.terms)
    quo = {}
    while rem:
        re = max(rem)
        qc, r = divmod(rem.pop(re), lead_c)
        qe = re - lead_e
        if (r or _borrows(re, lead_e, guards) or _borrows(top, qe, guards)
                or _borrows(qe, low, guards)):
            return None
        quo[qe] = qc
        # every term of qc*t^qe*tail lies lex-below re
        for e, c in tail:
            e += qe
            c = rem.get(e, 0) - qc * c
            if c:
                rem[e] = c
            else:
                del rem[e]
    return _poly(f.nvars, quo)


def _main_var(f, g):
    """Largest variable index occurring in f or g, or None: the variable
    of the lowest nonzero digit of any key."""
    keys = reduce(or_, f.terms, reduce(or_, g.terms, 0))
    if not keys:
        return None
    return max(f.nvars - 1 - ((keys & -keys).bit_length() - 1) // _BITS, 0)


# -- gcd: GCDHEU with cofactors -------------------------------------------

# The one size limit on the integers of the algebra, in bits; a gcd of two
# 2^20-bit integers takes about a second.
# - GCDHEU's schedule (`_points`, shared by both levels) ends before a
#   point whose images could pass it, and the PRS takes the gcd.
# - A pseudo-division of the PRS whose steps multiply in more than
#   MAX_BITS bits of the divisor's leading coefficient raises
#   DegreeTooLarge.  `dimpoly` refuses `[(t^16000 + 1)*d + 10^300*t - 2]`
#   (10^300 written out) after 1,052 steps in 0.9 s, where the step cap
#   alone let it run 54 s (process wall time, 2-core shared machine).
# - `variety.eval_diffpoly` refuses a power of a value at a point whose
#   integers may pass it, bounded before the power is taken.  Unchecked,
#   `tangent` with `point: y = N`, N a numeral of 4,000 digits, and
#   `eqs: y^1000 - 1` (13.3 million bits) took 4.0-4.9 s before exiting 1
#   on a value too long to print, and `y = t + 1` with `y^4000`
#   (32 million) 16 s; just under the limit, `y^723` at `y = t + 1` is
#   evaluated in 0.06 s (in-process CPU, 2-core shared machine).
MAX_BITS = 1 << 20

# GCDHEU's evaluation schedule: the first point is 2*min(|f|, |g|) + 2,
# the bound of the theorem, and each next one is
# 73794*xi*isqrt(isqrt(xi))//27011, about 2.73*xi^(5/4).  It yields at
# most _HEU_TRIES points and ends before a point xi at which an image, of
# at most deg*bits(xi) + bits(max(|f|, |g|)) bits, could pass MAX_BITS.
# GCDHEU also gives up, before evaluating, where the main variable's
# degree passes _HEU_MAX_DEGREE: rebuilding a candidate costs a
# big-integer division per digit, while the sparse PRS takes three steps
# on t^N + 1 and t^N + 2 whatever N is.
_HEU_TRIES = 6
_HEU_MAX_DEGREE = 1 << 12

# A pseudo-division of the PRS raises DegreeTooLarge past this many steps.
# A step costs a few products of the remainder, whose integers grow with
# every step, so a pseudo-division costs about the square of its steps.
# `dimpoly` refuses `[(t^100000 + 1)*d + t - 2]` and
# `[(t^16000 + 1)*d + 99*t^7 - 2*t^3 + 5]` in 0.24 and 0.33 s and answers
# `[(t^8000 + 1)*d + 99*t^7 - 2*t^3 + 5]` in 0.75 s, where a cap of 2^14
# would answer the t^16000 one in 2.0 s (process wall time, best of 5,
# 2-core shared machine).
MAX_PRS_STEPS = 1 << 13

# Number of gcds left to the PRS so far in this process.
prs_fallbacks = 0


def _evaluate(f, x, xi):
    """f with t_x replaced by the integer xi."""
    shift, mask = _digit(f.nvars, x)
    powers = {}
    out = {}
    for e, c in f.terms.items():
        k = e >> shift & mask
        if k:
            p = powers.get(k)
            if p is None:
                p = powers[k] = xi ** k
            c *= p
            e -= k << shift
        out[e] = out.get(e, 0) + c
    return _poly(f.nvars, {e: c for e, c in out.items() if c})


def _digits(gamma, xi):
    """Symmetric base-xi digits of the integer gamma, lowest first."""
    half = xi // 2
    digits = []
    while gamma:
        digit = gamma % xi
        if digit > half:
            digit -= xi
        digits.append(digit)
        gamma = (gamma - digit) // xi
    return digits


def _interpolate(gamma, x, xi):
    """The polynomial in t_x whose coefficients are the symmetric base-xi
    digits of gamma's coefficients (gamma is free of t_x)."""
    shift = _digit(gamma.nvars, x)[0]
    terms = {}
    for e, c in gamma.terms.items():
        for k, digit in enumerate(_digits(c, xi)):
            if digit:
                terms[e | k << shift] = digit
    return _carry_free(gamma.nvars, terms)


def _univariate_in(f, x):
    """True when f involves no variable other than t_x."""
    if f.nvars == 1:
        return True
    shift, mask = _digit(f.nvars, x)
    keys = reduce(or_, f.terms, 0)
    return keys == (keys >> shift & mask) << shift


def _dense(p, shift, degree):
    """Ascending integer coefficient list of a nonzero p of the given
    degree, univariate in the variable whose digit starts at bit shift."""
    coeffs = [0] * (degree + 1)
    for e, c in p.terms.items():
        coeffs[e >> shift] = c
    return coeffs


def _sparse(coeffs, nvars, shift):
    """The MPoly in the variable whose digit starts at bit shift with the
    ascending integer coefficient list coeffs."""
    return _poly(nvars, {i << shift: c for i, c in enumerate(coeffs) if c})


def _horner(coeffs, xi):
    """Value at xi of the polynomial with ascending coefficient list coeffs."""
    value = 0
    for c in reversed(coeffs):
        value = value * xi + c
    return value


def _dense_quotient(f, h):
    """Exact quotient f/h of ascending integer lists, or None if h does not
    divide f."""
    top = len(h) - 1
    if len(f) <= top:
        return None
    lead = h[-1]
    rem = list(f)
    quo = [0] * (len(f) - top)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + top], lead)
        if r:
            return None
        if c:
            quo[k] = c
            for j in range(top):
                rem[k + j] -= c * h[j]
    if any(rem[:top]):
        return None
    return quo


def _points(width, nf, ng):
    """GCDHEU's evaluation points for operands of degree at most width in
    the main variable and largest coefficients nf and ng in absolute value
    (see the comment above _HEU_TRIES)."""
    xi = 2 * min(nf, ng) + 2
    bits = max(nf, ng).bit_length()
    for _ in range(_HEU_TRIES):
        if width * xi.bit_length() + bits > MAX_BITS:
            return
        yield xi
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _heuristic_dense(a, b, points):
    """GCDHEU at the innermost level: (h, a/h, b/h) on ascending integer
    lists, with the cofactors `a` and `b` themselves when h is 1, or None
    when the points run out."""
    for xi in points:
        ae, be = _horner(a, xi), _horner(b, xi)
        if ae and be:
            h = _digits(_int_gcd(ae, be), xi)
            content = _int_gcd(*h)
            if h[-1] < 0:
                content = -content
            if content != 1:
                h = [c // content for c in h]
            if len(h) == 1:
                return h, a, b
            ca = _dense_quotient(a, h)
            if ca is not None:
                cb = _dense_quotient(b, h)
                if cb is not None:
                    return h, ca, cb
    return None


def _heuristic(f, g):
    """(h, f/h, g/h) by GCDHEU for nonconstant f, g with no common integer
    content, or None when it gives up.

    An accepted h is the gcd: h divides both inputs exactly, and with
    xi >= 2*min(|f|, |g|) + 2 every common factor that h missed would
    make the image gcd too large to be h's image (Char, Geddes and
    Gonnet 1989).  Inputs in one variable run on dense integer lists;
    otherwise the images' gcd comes from _gcd_cofactors again, so the
    other variables are handled recursively down to that dense level.
    """
    x = 0 if f.nvars == 1 else _main_var(f, g)
    shift, mask = _digit(f.nvars, x)
    df = max(e >> shift & mask for e in f.terms)
    dg = max(e >> shift & mask for e in g.terms)
    if max(df, dg) > _HEU_MAX_DEGREE:
        return None
    points = _points(max(df, dg), _norm(f), _norm(g))
    if _univariate_in(f, x) and _univariate_in(g, x):
        found = _heuristic_dense(_dense(f, shift, df), _dense(g, shift, dg),
                                 points)
        if found is None:
            return None
        if len(found[0]) == 1:
            return MPoly.const(f.nvars, 1), f, g
        return tuple(_sparse(p, f.nvars, shift) for p in found)
    for xi in points:
        fe, ge = _evaluate(f, x, xi), _evaluate(g, x, xi)
        if fe and ge:
            h = _interpolate(_gcd_cofactors(fe, ge)[0], x, xi)
            h = _div_int(h, _int_gcd(*h.terms.values()) * _sign(h))
            if h.is_one():
                return h, f, g
            cf = _quotient(f, h)
            if cf is not None:
                cg = _quotient(g, h)
                if cg is not None:
                    return h, cf, cg
    return None


def _gcd_cofactors(f, g):
    """(h, f/h, g/h) with h = mpoly_gcd(f, g); all three are 0 when f and
    g are."""
    if f.is_one() or g.is_one():
        return (f if f.is_one() else g), f, g
    if f.is_zero() or g.is_zero() or f == g:
        p = g if f.is_zero() else f
        if p.is_zero():
            return p, p, p
        s = _sign(p)
        return (p if s > 0 else -p, MPoly.const(p.nvars, s if f else 0),
                MPoly.const(p.nvars, s if g else 0))
    content = _int_gcd(*f.terms.values(), *g.terms.values())
    f, g = _div_int(f, content), _div_int(g, content)
    if f.is_const() or g.is_const():
        return MPoly.const(f.nvars, content), f, g
    if len(f.terms) == 1 or len(g.terms) == 1:
        # the divisors of a single term are single terms, so with the
        # integer content gone the gcd is t^low, the largest monomial
        # dividing every term of f and g
        low = _corners((*f.terms, *g.terms), f.nvars)[0]
        return (_poly(f.nvars, {low: content}), _shifted_down(f, low),
                _shifted_down(g, low))
    found = _heuristic(f, g)
    if found is None:
        global prs_fallbacks
        prs_fallbacks += 1
        h = _prs_gcd(f, g)
        found = h, f.divexact(h), g.divexact(h)
    h, cf, cg = found
    return (h if content == 1 else h.scale(content)), cf, cg


def mpoly_gcd(f, g):
    """Gcd in Z[t1..tv], integer content included, lex-leading coefficient
    positive; gcd(0, 0) = 0.

    Computed by GCDHEU with the PRS as fallback (see the module
    docstring).  The gcd over Z is unique up to sign, so both routes give
    the same polynomial.
    """
    return _gcd_cofactors(f, g)[0]


# -- gcd: primitive PRS, the fallback and the tests' oracle ---------------

def _coeffs_in(f, x):
    """View f as univariate in t_x: degree -> MPoly coefficient (t_x-free)."""
    shift, mask = _digit(f.nvars, x)
    out = {}
    for e, coeff in f.terms.items():
        k = e >> shift & mask
        out.setdefault(k, {})[e - (k << shift)] = coeff
    return {d: _poly(f.nvars, t) for d, t in out.items()}


def _content_pp(f, x):
    """Content over Z[other variables] (lex-positive), an integer when f is
    in t_x alone, and primitive part."""
    content = MPoly.zero(f.nvars)
    for poly in _coeffs_in(f, x).values():
        content = _prs_gcd(content, poly)
        if content.is_one():
            return content, f
    if content.is_const():
        return content, _div_int(f, content.const_value())
    return content, f.divexact(content)


def _lead_in(f, x):
    """(degree, coefficient) of the leading term of a nonzero f viewed as
    univariate in t_x."""
    shift, mask = _digit(f.nvars, x)
    top = max(e >> shift & mask for e in f.terms)
    low = top << shift
    return top, _poly(f.nvars, {e - low: c for e, c in f.terms.items()
                                if e >> shift & mask == top})


def _prem(f, g, x):
    """Pseudo-remainder of f by g with respect to t_x, or DegreeTooLarge
    past MAX_PRS_STEPS steps, or once the steps have multiplied the
    remainder by more than MAX_BITS bits of g's leading coefficient;
    a step cancels the leading t_x-degree, so there are at most
    deg f - deg g + 1."""
    dg, lc_g = _lead_in(g, x)
    grow = max(map(abs, lc_g.terms.values())).bit_length()
    unit = 1 << _digit(f.nvars, x)[0]
    rem = f
    steps = 0
    while rem.terms:
        dr, lc_r = _lead_in(rem, x)
        if dr < dg:
            break
        steps += 1
        if steps > MAX_PRS_STEPS:
            raise DegreeTooLarge(f.degree_in(x), dg, MAX_PRS_STEPS)
        if steps * grow > MAX_BITS:
            raise DegreeTooLarge(f.degree_in(x), dg, MAX_BITS,
                                 "bits of leading coefficients in one "
                                 "pseudo-division")
        rem = rem * lc_g - lc_r * _poly(f.nvars, {(dr - dg) * unit: 1}) * g
    return rem


def _prs_gcd(f, g):
    """mpoly_gcd by primitive pseudo-remainder sequences alone, recursing
    on the main variable; in one variable the content is the integer
    content."""
    if f.is_zero():
        return _lex_positive(g)
    if g.is_zero():
        return _lex_positive(f)
    if f.is_const() or g.is_const():
        return MPoly.const(f.nvars, _int_gcd(*f.terms.values(),
                                             *g.terms.values()))
    x = _main_var(f, g)
    cf, pf = _content_pp(f, x)
    cg, pg = _content_pp(g, x)
    c = _prs_gcd(cf, cg)
    if pf.degree_in(x) < pg.degree_in(x):
        pf, pg = pg, pf
    while True:
        r = _prem(pf, pg, x)
        if r.is_zero():
            return c * _lex_positive(pg)
        pf, pg = pg, _content_pp(r, x)[1]


class RatFun:
    """Element of K = Q(t1..tv) in canonical form: a coprime pair over Z
    with lex-positive denominator."""

    # _derived memoizes derive: derivation index -> derivative
    __slots__ = ("num", "den", "_derived")

    def __init__(self, num, den=None):
        if den is None:
            den = MPoly.const(num.nvars, 1)
        self.num, self.den = _normalize(num, den)
        self._derived = None

    @property
    def nvars(self):
        return self.num.nvars

    @classmethod
    def from_const(cls, nvars, value):
        if not isinstance(value, int):
            raise TypeError(f"cannot use {value!r} as a base-field constant")
        return _ratfun(MPoly.const(nvars, value), MPoly.const(nvars, 1))

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    # -- field arithmetic -----------------------------------------------
    #
    # Products of lex-positive polynomials, and their quotients by the
    # (lex-positive) gcds, are lex-positive, so the results below are
    # canonical once they are coprime; a constant gcd such as 2 is not a
    # unit over Z, so only a gcd of 1 skips a cancellation.

    def __add__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            # polynomials: their sum over 1 is already canonical
            return _ratfun(self.num + other.num, self.den)
        # with coprime inputs, any common factor of the raw sum divides
        # g = gcd of the denominators, so only small gcds are ever taken
        g, d1r, d2r = _gcd_cofactors(self.den, other.den)
        num = self.num * d2r + other.num * d1r
        if g.is_one():
            # coprime denominators: a zero sum has denominator 1*1 = 1
            return _ratfun(num, d1r * d2r)
        if num.is_zero():
            return RatFun.from_const(self.nvars, 0)
        _, num, g = _gcd_cofactors(num, g)
        return _ratfun(num, g * d1r * d2r)

    __radd__ = __add__

    def __neg__(self):
        return _ratfun(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFun.from_const(self.nvars, 0)
        if other.is_one():
            return self
        if self.is_one():
            return other
        if self.den.is_one() and other.den.is_one():
            return _ratfun(self.num * other.num, self.den)
        # cross-cancel before multiplying: the result is already coprime
        _, n1, d2 = _gcd_cofactors(self.num, other.den)
        _, n2, d1 = _gcd_cofactors(other.num, self.den)
        return _ratfun(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero in the base field")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        s = _sign(self.num)
        return _ratfun(_scaled(self.den, s), _scaled(self.num, s))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return _ratfun(self.num ** k, self.den ** k)

    def derive(self, i):
        """Partial derivative; zero for indices past the variable count."""
        if i < 0:
            raise BadDerivation(f"derivation index {i} is negative")
        if self._derived is None:
            self._derived = {}
        result = self._derived.get(i)
        if result is None:
            result = self._derived[i] = self._derive(i)
        return result

    def _derive(self, i):
        if i >= self.nvars or self.is_const():
            return RatFun.from_const(self.nvars, 0)
        den = self.den
        num = self.num.partial(i) * den - self.num * den.partial(i)
        if num.is_zero():
            return RatFun.from_const(self.nvars, 0)
        # common factors all divide the original denominator; two rounds of
        # cancellation against it reach the coprime form: den^2/h = r*den,
        # then r*den/h2 = r*r2
        h, num, r = _gcd_cofactors(num, den)
        if h.is_one():
            return _ratfun(num, den * den)
        _, num, r2 = _gcd_cofactors(num, den)
        return _ratfun(num, r * r2)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"RatFun({self.num!r}, {self.den!r})"


def _coerce(value, nvars):
    """An int or a RatFun as a RatFun; NotImplemented for anything else,
    so that an operator defers to the other operand or raises TypeError."""
    if isinstance(value, RatFun):
        return value
    if isinstance(value, int):
        return RatFun.from_const(nvars, value)
    return NotImplemented


def _normalize(num, den):
    """Coprime pair over Z with lex-positive denominator; zero is 0/1."""
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return num, MPoly.const(num.nvars, 1)
    _, num, den = _gcd_cofactors(num, den)
    if _lead_coeff(den) < 0:
        return -num, -den
    return num, den


def _ratfun(num, den):
    """RatFun of num/den taken as is, the pair already coprime with a
    lex-positive denominator (no checks, no gcd)."""
    r = object.__new__(RatFun)
    r.num = num
    r.den = den
    r._derived = None
    return r
