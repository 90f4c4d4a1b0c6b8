"""Input grammar: rational, operator, and differential-polynomial expressions,
plus the line-oriented problem-file format consumed by the CLI.

Expressions use `+ - * / ^`, numerals of ASCII digits, field variables `t`
(one) or `t1..tv`, derivations `d` (one) or `d1..dm`, with `t1` and `d1`
the only aliases of a single `t` or `d`, and `y'`, `y''` or `y_(2,1)` for
derivatives of the differential indeterminates.  The symbol table
(`_symbols`), the derivative labels (`term_label`) and the printers'
signed-sum joiner, which takes each term's sign as data, are each written
once here.  A numeral too long to convert is a `ParseError`.

An expression is read by `parse_expr` and `parse_term` over one factor
step, `parse_factor` (signs, an atom with its primes, and `^`), that reads
the tokens by index.  A subexpression stays integer data (`_Data`):
derivation monomials mapped to integer polynomials, keyed like `MPoly`,
over one positive integer denominator.  Numerals, field variables,
`d`/`d_i`, sums, signs, products that need no commutation rule, quotients
by numerals and powers of one term stay data, so a literal costs no field
or operator arithmetic.  Anything else builds its `RatFun`, `OrePoly` or
`DiffPoly` once (`_ExprParser.ring`) and goes through that ring: `d*t` is
`t*d + 1`, division is by base-field elements only and negative powers
exist only in the base field.  The caps below are checked before a power
or a product is computed, each a `ParseError` with its position:
`MAX_POWER_ORDER` and `MAX_POWER_COEFF_DEGREE` on powers of operators,
`MAX_FIELD_POWER_DEGREE` on powers of base-field elements,
`MAX_FIELD_POWER_TERMS` on those powers and on every product of two
base-field polynomials of several terms, and `field._HEU_MAX_BITS` on the
integers of every power.

A problem file is read a line at a time.  Each section body is tokenized
once, where it sits in its line, so every error inside it names the column
of the line, not of a piece; and every list in it (`;` between generators,
equations or leader groups, `,` between coordinates, point entries,
leaders, the entries of a leader tuple and field variables) is split by one
rule, `_split_tokens`, at bracket depth zero.  The counts in the header,
`module:` and `derivations:`, are numerals of ASCII digits like any other,
capped by `MAX_MODULE_RANK` and `MAX_DERIVATIONS`.
`MAX_NESTING` keeps the recursion, one level per parenthesis, bounded.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add

from .errors import DivisionByZero, ParseError
from .field import (_HEU_MAX_BITS, DiffFieldConfig, MPoly, RatFun, _digit,
                    _pack, _poly, _unpack)
from .ore import OrePoly
from .diffmodule import ModElement, Ranking, orderly_ranking
from .numpoly import Antichain
from .record import Record
from .variety import DiffPoly, VarietyPoint


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = set("+-*/^()[],;='")
_DIGITS = set("0123456789")


class Token(Record):
    """One token of problem text, with its 1-based line and column."""

    __slots__ = _fields = ("kind", "text", "line", "column")

    # kind: "num", "name", or the symbol itself
    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def tokenize(text, line=1, column=1):
    """The tokens of `text`, found on line `line` with its first character
    at column `column`; every column counts from the start of that line."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        col = i + column
        if c in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("num", text[i:j], line, col))
            i = j
        elif c.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            name = text[i:j]
            i = j
            # optional derivative suffix: primes or _(k1,...,km)
            if i < len(text) and text[i] == "_" and i + 1 < len(text) \
                    and text[i + 1] == "(":
                j = text.find(")", i)
                if j < 0:
                    raise ParseError("unterminated multi-index", line, col)
                name += text[i:j + 1].replace(" ", "")
                i = j + 1
            tokens.append(Token("name", name, line, col))
        elif c in _SYMBOLS:
            tokens.append(Token(c, c, line, col))
            i += 1
        elif c == "_":
            raise ParseError("stray '_' outside a name", line, col)
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    return tokens


def _int(tok):
    """The value of a numeral token; one too long for the interpreter to
    convert (`sys.get_int_max_str_digits`) is a ParseError at the token."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"numeral of {len(tok.text)} digits; the limit is "
                         f"{sys.get_int_max_str_digits()} digits",
                         tok.line, tok.column) from None


# ---------------------------------------------------------------------------
# expression parser

# Highest order of a power of an operator, unless the operator is a single
# term with a constant coefficient.  Repeated squaring applies delta to every
# term of the right factor once per order of the left one, so (t*d)^k costs
# about k^2 derivations: k = 100 takes 0.1 s and k = 3000 runs past 10 s.
# With constant coefficients delta only shifts exponents, but (d + 1)^k
# still has k + 1 terms and costs about k^2 products.  A single constant
# term stays one term and has no cap (`d^10000000` is fine).
MAX_POWER_ORDER = 100

# Cap on the predicted coefficient degree of a power base^k, k >= 2, of an
# operator: its order times the largest numerator or denominator degree
# among its coefficients whose denominator has more than one term.  Each
# order of the power derives the coefficients once more, and derivatives
# of such a quotient swell.  Measured without the cap (in-process CPU
# time, 2-core shared machine): ((t^2+1)/(t-1)*d + t)^k, predicted 2k,
# takes 0.05 s at k = 10, 0.5 s at k = 20 and 4.7 s at k = 40; with m = 2
# ((t1^2+t2)/(t1-t2)*d1 + t2*d2)^k takes 0.9 s at k = 10 and 3.2 s at
# k = 12.  Polynomial coefficients, and those over a monomial, grow in
# degree only linearly with the order and count as degree 0: ((t + 1)*d)^21
# takes 0.007 s.  The cap is a first bound, not a cost model:
# `((t + 1)*d)^100` takes 0.6 s and `(1/t*d + t)^100` seconds.
MAX_POWER_COEFF_DEGREE = 20

# Caps on a power of a base-field element whose numerator or denominator
# has more than one term.  Its total degree is |k| times the larger of the
# numerator's and the denominator's.  Its term count is bounded by
# `_power_terms`: p^|k| has at most C(|k|*D + v, v) terms, D the total
# degree of p and v the number of field variables it holds, and at most
# C(|k| + n - 1, n - 1), n the number of terms of p.  Both caps are checked
# before the power is computed.  In CPU time on a 2-core shared machine:
# (t + 1)^500 takes 0.12 s and (t + 1)^2000 took 3.9 s; (t1 + t2 + 1)^50
# (1,326 terms) takes 0.15 s, ^69 (2,485) 0.40 s, ^80 (3,321) 0.75 s and
# ^100 (5,151) 2.3 s; (t1 + t2 + t3 + 1)^22 (2,300) takes 0.13 s and ^30
# (5,456) 0.84 s.  With one variable the degree cap allows at most 501
# terms, so the term cap binds only with two or more.  A quotient of two
# monomials stays one term and has no cap (`(2*t)^20000` is fine).
#
# The term cap also bounds every product of two base-field polynomials of
# two or more terms each that a `*` or `/` asks for, the coefficients of
# an operator or a differential polynomial taken one at a time: p*q has at
# most |p|*|q| terms, and at most C(D + v, v) for D the sum of their total
# degrees and v the field variables they hold (`_check_product`).  So 60
# factors (t1 + t2 + 1) pass, as ^60 does, and 120 factors
# (t1 + t2 + t3 + 1), which took 52.6 s, are refused at the 23rd.
MAX_FIELD_POWER_DEGREE = 500
MAX_FIELD_POWER_TERMS = 2500

# Caps on the counts in a problem file's header, checked as it is read,
# before any symbol table or ranking is built.  The derivation count m (from
# `derivations:`, or the number of field variables, which m may not be
# below) costs about m^2: every d_i is keyed by an m-tuple, and the dimension
# polynomial has degree up to m.  The rank n (`module:`, or the number of
# `vars:`) costs about n^2 per n x n matrix of the diagonalization and n^3
# in its pivot search, which scans the trailing block for every pivot.
# Process wall times on a 2-core shared machine, best of three, about
# 0.1 s of each the interpreter's start: `dimpoly` of `gens: [d1]` takes
# 0.33 s at m = 500, 1.1 s at m = 1000 and 4.3 s at m = 2000; `decompose`
# of one generator `[d, 0, ..., 0]` takes 0.25 s at n = 100, 0.27 s at
# n = 200, 0.30 s at n = 300 and 0.68 s at n = 1000; `tangent` with n
# `vars:` and the one equation `y0' - 1` 0.27-0.30 s at n = 100 and 200
# and 0.90 s at n = 1000, and with the n equations `yi' - 1` 0.37 s,
# 0.85 s and 1.8-2.1 s at n = 100, 200 and 300, most of it the pivot
# search.
MAX_DERIVATIONS = 500
MAX_MODULE_RANK = 100
MAX_NESTING = 100


def _shape(p):
    """(total degree, set of the field variables held) of a nonzero MPoly
    p, read one digit of its packed keys at a time."""
    nvars = p.nvars
    columns = [[e >> shift & mask for e in p.terms]
               for shift, mask in (_digit(nvars, i) for i in range(nvars))]
    return (max(map(sum, zip(*columns)), default=0),
            {i for i, column in enumerate(columns) if any(column)})


def _power_terms(p, k):
    """Upper bound on the number of terms of p^k, for a nonzero MPoly p: the
    dense count in the variables p holds, or the number of products of k of
    p's terms, whichever is smaller."""
    degree, held = _shape(p)
    return min(comb(k * degree + len(held), len(held)),
               comb(k + len(p.terms) - 1, k))


def _check_product(p, q, tok):
    """ParseError at `tok` when the product of the MPolys p and q may have
    more than MAX_FIELD_POWER_TERMS terms; a factor of one term adds none."""
    terms = len(p.terms) * len(q.terms)
    if min(len(p.terms), len(q.terms)) > 1 and terms > MAX_FIELD_POWER_TERMS:
        (dp, held), (dq, held_q) = _shape(p), _shape(q)
        nvars, degree = len(held | held_q), dp + dq
        terms = min(terms, comb(degree + nvars, nvars))
        if terms > MAX_FIELD_POWER_TERMS:
            raise ParseError(f"product of degree {degree} with up to "
                             f"{terms} terms; the limit is "
                             f"{MAX_FIELD_POWER_TERMS} terms",
                             tok.line, tok.column)


def _check_power_bits(base, k, tok):
    """ParseError at `tok` when base^k would hold an integer of more than
    _HEU_MAX_BITS bits: |k| times the largest ceil(log2 |c|) over the
    integers c of base, which c^k has, give or take one bit."""
    if type(base) is _Data:
        polys = [{0: base.den}, *base.terms.values()]
    else:
        polys = [p.terms for x in _coefficients(base) for p in (x.num, x.den)]
    bits = abs(k) * max(((abs(c) - 1).bit_length() for p in polys
                         for c in p.values()), default=0)
    if bits > _HEU_MAX_BITS:
        raise ParseError(f"power with integers of about {bits} bits; the "
                         f"limit is {_HEU_MAX_BITS} bits",
                         tok.line, tok.column)


class _Data:
    """A subexpression held as integers: `terms` maps a derivation monomial
    (an exponent tuple of length m) to a base-field polynomial, a dict from
    packed `MPoly` keys to nonzero ints, and every polynomial is over the one
    positive integer `den`.  Each dict belongs to this value alone, so a sum
    or a sign changes it in place."""

    __slots__ = ("terms", "den")

    def __init__(self, terms, den=1):
        self.terms = terms
        self.den = den


def _scale(x, k):
    """Multiply every coefficient of the _Data x by the integer k, in place."""
    for p in x.terms.values():
        for e in p:
            p[e] *= k


def _merge(terms, key, p, k=1):
    """terms[key] += k*p in place, p a polynomial dict that is used up; an
    entry that cancels is dropped."""
    q = terms.get(key)
    if q is None:
        terms[key] = p if k == 1 else {e: c * k for e, c in p.items()}
        return
    for e, c in p.items():
        c = q.get(e, 0) + c * k
        if c:
            q[e] = c
        else:
            del q[e]
    if not q:
        del terms[key]


def _product(p, q, nvars, tok):
    """p*q as a new dict, for polynomial dicts p and q in nvars variables
    (`MPoly`'s product builds one when neither factor is a constant);
    `tok` is the operator that asks for it."""
    if len(q) == 1 and 0 in q:
        p, q = q, p
    if len(p) == 1 and 0 in p:
        c = p[0]
        return {e: c * a for e, a in q.items()}
    p, q = _poly(nvars, p), _poly(nvars, q)
    _check_product(p, q, tok)
    return (p * q).terms


class _ExprParser:
    """Parses tokens into a value over `config`: a base-field element, an
    operator (with `deltas`) or a differential polynomial in the names of
    `var_names`; any other name is a ParseError "<unknown> 'name'".

    A subexpression stays `_Data` under numerals, field variables, d/d_i,
    `+`, `-`, signs, `*` unless a field factor stands right of a
    derivation, `/` by a numeral, and `^k`, k >= 0, of one term whose field
    or derivation part is 1.  Anything else builds its `RatFun`, `OrePoly`
    or `DiffPoly` once (`ring`) and goes through that ring's operators and
    the rules of `divide` and `power`, so `d*t` is still `t*d + 1`.
    """

    def __init__(self, tokens, config, line, unknown, deltas=False,
                 var_names=None):
        self.tokens = tokens
        self.pos = 0
        self.config = config
        self.line = line
        self.unknown = unknown
        self.deltas = deltas
        self.var_names = var_names
        self.index = {name: i for i, name in enumerate(var_names or ())}
        self.zero_message = "division by the zero operator" if deltas \
            else "division by zero in the base field"
        self.scalar = (0,) * config.m
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}",
                             tok.line, tok.column)
        return tok

    def ring(self, value):
        """`value` as a RatFun, OrePoly or DiffPoly; _Data is built here."""
        if type(value) is not _Data:
            return value
        v, den = self.config.v, value.den
        coeffs = {}
        for key, p in value.terms.items():
            g = gcd(den, *p.values()) if den > 1 else 1
            coeffs[key] = RatFun(
                _poly(v, {e: c // g for e, c in p.items()} if g > 1 else p),
                MPoly.const(v, den // g), _canonical=True)
        if coeffs.keys() <= {self.scalar}:
            return coeffs.get(self.scalar) or RatFun.from_const(v, 0)
        return OrePoly.zero(self.config)._new(coeffs)

    def parse_expr(self):
        value = self.parse_term()
        while (tok := self.peek()) and tok.kind in ("+", "-"):
            self.pos += 1
            rhs = self.parse_term()
            if type(value) is _Data and type(rhs) is _Data:
                den = lcm(value.den, rhs.den)
                if den != value.den:
                    _scale(value, den // value.den)
                    value.den = den
                k = den // rhs.den
                for key, p in rhs.terms.items():
                    _merge(value.terms, key, p, k if tok.kind == "+" else -k)
            else:
                value, rhs = self.ring(value), self.ring(rhs)
                value = value + rhs if tok.kind == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while (tok := self.peek()) and tok.kind in ("*", "/"):
            self.pos += 1
            rhs = self.parse_factor()
            value = self.multiply(value, rhs, tok) if tok.kind == "*" \
                else self.divide(value, rhs, tok)
        return value

    def multiply(self, value, rhs, tok):
        # no commutation rule is needed when value holds no derivation or
        # rhs only constant coefficients
        if type(value) is _Data and type(rhs) is _Data and (
                value.terms.keys() <= {self.scalar} or all(
                    p.keys() == {0} for p in rhs.terms.values())):
            v = self.config.v
            terms = {}
            for dx, p in value.terms.items():
                for dy, q in rhs.terms.items():
                    _merge(terms, tuple(map(add, dx, dy)),
                           _product(p, q, v, tok))
            return _Data(terms, value.den * rhs.den)
        value, rhs = self.ring(value), self.ring(rhs)
        for x in _coefficients(value):
            for y in _coefficients(rhs):
                _check_product(x.num, y.num, tok)
                _check_product(x.den, y.den, tok)
        return value * rhs

    def divide(self, value, rhs, tok):
        if type(rhs) is _Data and rhs.terms.keys() == {self.scalar} \
                and rhs.terms[self.scalar].keys() == {0}:
            # a nonzero numeral c: multiply by 1/c
            c = rhs.terms[self.scalar][0]
            return self.multiply(value, _Data(
                {self.scalar: {0: rhs.den if c > 0 else -rhs.den}}, abs(c)),
                tok)
        value, divisor = self.ring(value), _field_value(self.ring(rhs))
        if divisor is None:
            raise ParseError("can only divide by a base-field element",
                             tok.line, tok.column)
        if not divisor:
            raise DivisionByZero(self.zero_message)
        inverse = divisor.inverse()
        for x in _coefficients(value):
            _check_product(x.num, inverse.num, tok)
            _check_product(x.den, inverse.den, tok)
        return value * inverse

    def power(self, base, k, tok):
        """base^k, with negative powers taken in the base field."""
        _check_power_bits(base, k, tok)
        if type(base) is _Data and k >= 0 and len(base.terms) == 1:
            (key, p), = base.terms.items()
            if len(p) == 1 and (key == self.scalar or 0 in p):
                (e, c), = p.items()
                v = self.config.v
                if e:
                    e = _pack([a * k for a in _unpack(e, v)])
                return _Data({tuple(a * k for a in key): {e: c ** k}},
                             base.den ** k)
        base = self.ring(base)
        scalar = _field_value(base)
        if scalar is not None and (len(scalar.num.terms) > 1
                                   or len(scalar.den.terms) > 1):
            degree = abs(k) * max(_shape(p)[0]
                                  for p in (scalar.num, scalar.den))
            if degree > MAX_FIELD_POWER_DEGREE:
                raise ParseError(f"power of degree {degree} of a base-field "
                                 f"element of more than one term; the limit "
                                 f"is {MAX_FIELD_POWER_DEGREE}",
                                 tok.line, tok.column)
            terms = max(_power_terms(p, abs(k))
                        for p in (scalar.num, scalar.den))
            if terms > MAX_FIELD_POWER_TERMS:
                raise ParseError(f"power of degree {degree} with up to "
                                 f"{terms} terms; the limit is "
                                 f"{MAX_FIELD_POWER_TERMS} terms",
                                 tok.line, tok.column)
        if isinstance(base, RatFun):
            return base ** k
        if k < 0:
            if scalar is None:
                raise ParseError("negative power of an expression outside "
                                 "the base field", tok.line, tok.column)
            return scalar ** k
        if isinstance(base, OrePoly):
            order = k * base.degree()
            if order > MAX_POWER_ORDER and not (
                    len(base.terms) == 1
                    and next(iter(base.terms.values())).is_const()):
                raise ParseError(f"power of order {order} of an operator "
                                 f"that is not one constant-coefficient "
                                 f"term; the limit is {MAX_POWER_ORDER}",
                                 tok.line, tok.column)
            degree = order * max((max(_shape(c.num)[0], _shape(c.den)[0])
                                  for c in base.terms.values()
                                  if len(c.den.terms) > 1), default=0)
            if k > 1 and degree > MAX_POWER_COEFF_DEGREE:
                raise ParseError(f"power of order {order} with coefficients "
                                 f"of predicted degree {degree}; the limit "
                                 f"is {MAX_POWER_COEFF_DEGREE}",
                                 tok.line, tok.column)
        return base ** k

    def parse_factor(self):
        """Signs, an atom with its primes, and `^` with its signed numeral;
        the signs apply to the power."""
        negative = False
        while (tok := self.peek()) and tok.kind in ("+", "-"):
            negative ^= tok.kind == "-"
            self.pos += 1
        tok = self.next()
        if tok.kind == "num":
            k = _int(tok)
            value = _Data({self.scalar: {0: k}} if k else {})
        elif tok.kind == "name":
            primes = 0
            while (t := self.peek()) and t.kind == "'":
                self.pos += 1
                primes += 1
            value = self.resolve(tok, primes)
        elif tok.kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}", tok.line, tok.column)
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
        else:
            raise ParseError(f"unexpected token {tok.text!r}",
                             tok.line, tok.column)
        if (hat := self.peek()) and hat.kind == "^":
            self.pos += 1
            sign = 1
            while (t := self.peek()) and t.kind == "-":
                self.pos += 1
                sign = -sign
            value = self.power(value, sign * _int(self.expect("num")), hat)
        if negative and type(value) is _Data:
            _scale(value, -1)
        elif negative:
            value = -value
        return value

    def resolve(self, tok, primes):
        """The value of the name `tok` followed by `primes` primes."""
        name, dexps = _split_suffix(tok)
        if primes and dexps is not None:
            raise ParseError("mixed prime and multi-index suffix",
                             tok.line, tok.column)
        if primes:
            dexps = (primes,)
        config = self.config
        if name in self.index:
            exps = dexps if dexps is not None else (0,) * config.m
            if len(exps) == 1 and config.m > 1:
                raise ParseError(
                    f"{name!r} needs a multi-index of length {config.m}",
                    tok.line, tok.column)
            if len(exps) != config.m:
                raise ParseError(
                    f"multi-index of wrong length for {name!r}",
                    tok.line, tok.column)
            return DiffPoly.indeterminate(config, len(self.var_names),
                                          self.index[name], exps)
        if dexps is None:
            symbol = _symbols(config).get(name)
            if symbol and (self.deltas or symbol[0] == self.scalar):
                return _Data({symbol[0]: {symbol[1]: 1}})
        elif self.var_names is None:
            raise ParseError(f"{name!r} cannot carry a derivative suffix",
                             tok.line, tok.column)
        raise ParseError(f"{self.unknown} {name!r}", tok.line, tok.column)


def _split_suffix(tok):
    name = tok.text
    if "_(" not in name:
        return name, None
    base, rest = name.split("_(", 1)
    entries = rest.rstrip(")").split(",")
    # ASCII digits, as in numerals, after an optional '-' that is refused
    # below; int() alone would also take '1_0', '+1', Unicode digits and
    # whitespace
    try:
        if not all(p.lstrip("-") and _DIGITS.issuperset(p.lstrip("-"))
                   for p in entries):
            raise ValueError
        dexps = tuple(int(p) for p in entries)
    except ValueError:
        raise ParseError(f"bad multi-index in {tok.text!r}",
                         tok.line, tok.column)
    if any(k < 0 for k in dexps):
        raise ParseError("negative entry in multi-index",
                         tok.line, tok.column)
    return base, dexps


def _field_value(value):
    """The base-field element that `value` is, or None when it holds a
    derivation operator or an indeterminate."""
    if isinstance(value, RatFun):
        return value
    one = (0,) * value.config.m if isinstance(value, OrePoly) else ()
    if value.terms.keys() <= {one}:
        return value.terms.get(one, RatFun.from_const(value.config.v, 0))
    return None


def _coefficients(value):
    """The base-field coefficients of a ring value: a RatFun is its own."""
    return (value,) if isinstance(value, RatFun) else value.terms.values()


def _tokens(text, line):
    """`text` as tokens; a token list (a group split off a line) is kept."""
    return tokenize(text, line) if isinstance(text, str) else text


def _parse_with(text, config, line, unknown, **options):
    """Parse one expression over `config` (see `_ExprParser` for the
    options); text may also be a token list."""
    parser = _ExprParser(_tokens(text, line), config, line, unknown,
                         **options)
    value = parser.parse_expr()
    if tok := parser.peek():
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return parser.ring(value)


# ---------------------------------------------------------------------------
# symbols

def field_var_names(config):
    return ["t"] if config.v == 1 else [f"t{i + 1}" for i in range(config.v)]


def delta_names(config):
    return ["d"] if config.m == 1 else [f"d{i + 1}" for i in range(config.m)]


def _unit(i, length):
    return tuple(int(i == j) for j in range(length))


@functools.lru_cache(maxsize=64)
def _symbols(config):
    """{name: (derivation monomial, packed field monomial)} over `config`:
    t_i is the field monomial t_i with no derivation, d_i the derivation
    d_i with the constant monomial, and `t1` and `d1` are aliases of a
    single `t` or `d`."""
    scalar = (0,) * config.m
    table = {name: (scalar, _pack(_unit(i, config.v)))
             for i, name in enumerate(field_var_names(config))}
    table.update((name, (_unit(i, config.m), 0))
                 for i, name in enumerate(delta_names(config)))
    for single in ("t", "d"):
        if single in table:
            table[single + "1"] = table[single]
    return table


# ---------------------------------------------------------------------------
# expression entry points

def parse_ratfun(text, config, line=1):
    """Rational expression over the field variables."""
    return _parse_with(text, config, line, "unknown field variable")


def parse_orepoly(text, config, line=1):
    """Operator expression over field variables and d / d1..dm."""
    value = _parse_with(text, config, line, "unknown symbol", deltas=True)
    if isinstance(value, RatFun):
        return OrePoly.from_scalar(config, value)
    return value


def parse_diffpoly(text, config, var_names, line=1):
    """Differential polynomial over the declared variables."""
    value = _parse_with(text, config, line, "unknown variable",
                        var_names=var_names)
    if isinstance(value, RatFun):
        return DiffPoly.const(config, len(var_names), value)
    return value


def parse_generator_vector(text, config, n, line=1):
    """`[oreexpr, ..., oreexpr]` with exactly n coordinates -> ModElement."""
    tokens = _tokens(text, line)
    column = tokens[0].column if tokens else None
    if not tokens or tokens[0].kind != "[" or tokens[-1].kind != "]":
        raise ParseError("generator vector must be bracketed", line, column)
    groups = _split_tokens(tokens[1:-1], ",")
    if len(groups) != n:
        raise ParseError(f"expected {n} coordinates, found {len(groups)}",
                         line, column)
    coords = [parse_orepoly(g, config, line) if g
              else OrePoly.zero(config) for g in groups]
    return ModElement.from_operator_vector(coords, n)


def _split_tokens(tokens, sep):
    """Split a token list on a separator at bracket depth zero."""
    groups = [[]]
    depth = 0
    for tok in tokens:
        if tok.kind in "([":
            depth += 1
        elif tok.kind in ")]":
            depth -= 1
        if tok.kind == sep and depth == 0:
            groups.append([])
        else:
            groups[-1].append(tok)
    return groups


# ---------------------------------------------------------------------------
# pretty printers (round-trip with the parsers above)

def _signed_sum(pieces):
    """`a + b - c` from (negative, text) pieces, with a bare `-` before a
    negative first piece; `0` for no pieces."""
    out = ""
    for negative, text in pieces:
        if out:
            out += " - " if negative else " + "
        elif negative:
            out = "-"
        out += text
    return out or "0"


def _monomial(names, exps):
    """`name^e` factors joined by `*`; empty for the unit monomial."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exps) if e)


def _times(cs, body, wrap_quotients=False):
    """cs*body: a coefficient 1 is left out, a missing body leaves cs alone,
    and cs is parenthesized when it holds a space or, with wrap_quotients,
    a quotient of anything but numerals."""
    if not body:
        return cs
    if cs == "1":
        return body
    if " " in cs or (wrap_quotients and "/" in cs
                     and not cs.replace("/", "").isdigit()):
        cs = f"({cs})"
    return f"{cs}*{body}"


def _term(coeff, body, config, wrap_quotients=False):
    """(negative, text) of the term coeff*body.  A quotient of two monomials
    with a negative coefficient gives its sign to the sum; any other
    coefficient prints whole, with its own signs."""
    negative = len(coeff.num.terms) == 1 == len(coeff.den.terms) \
        and coeff.num.lex_leading()[1] < 0
    return negative, _times(ratfun_str(-coeff if negative else coeff,
                                       config), body, wrap_quotients)


def mpoly_str(terms, names):
    """Sum of {exponents: rational coefficient} terms, lex-descending."""
    return _signed_sum((c < 0, _times(str(abs(c)), _monomial(names, e)))
                       for e, c in sorted(terms.items(), reverse=True))


def ratfun_str(r, config):
    """Printed with a monic denominator: numerator and denominator are both
    divided by the denominator's lex-leading coefficient."""
    names = field_var_names(config)
    _, lead = r.den.lex_leading()
    num, den = ({e: Fraction(c, lead) for e, c in p.exponents().items()}
                for p in (r.num, r.den))
    num_s = mpoly_str(num, names)
    if r.den.is_const():
        return num_s
    den_s = mpoly_str(den, names)
    if len(num) > 1 or " " in num_s:
        num_s = f"({num_s})"
    if len(den) > 1 or "*" in den_s or "^" in den_s:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def orepoly_str(op, config):
    dnames = delta_names(config)
    keys = sorted(op.terms, key=lambda e: (sum(e), e), reverse=True)
    return _signed_sum(_term(op.terms[e], _monomial(dnames, e), config,
                             wrap_quotients=True) for e in keys)


def vector_str(w, config):
    return "[" + ", ".join(orepoly_str(op, config)
                           for op in w.operator_vector()) + "]"


def term_label(name, exps):
    """`y`, `y'`, `y''` with one derivation; `y_(1,2)` with several."""
    if len(exps) == 1:
        return name + "'" * exps[0]
    return name + ("_(" + ",".join(map(str, exps)) + ")" if any(exps)
                   else "")


def modelement_str(w, config, var_names):
    """Human-oriented form: sum of coeff*theta(e_var) pieces."""
    rk = orderly_ranking(w.n)
    return _signed_sum(
        _term(w.terms[key], "d" + term_label(var_names[key[0]], key[1]),
              config)
        for key in sorted(w.terms, key=rk.key, reverse=True))


# ---------------------------------------------------------------------------
# problem files

class ProblemFile(Record):
    """Parsed input: field layout plus one of equations+point or raw module.

    A ProblemFile built without `var_names` gets a new empty list.
    """

    __slots__ = _fields = ("config", "var_names", "point", "eqs",
                           "module_rank", "gens", "ranking_kind", "leaders",
                           "element")

    def __init__(self, config: DiffFieldConfig,
                 var_names: list | None = None,
                 point: VarietyPoint | None = None, eqs: list | None = None,
                 module_rank: int | None = None, gens: list | None = None,
                 ranking_kind: str = "orderly",
                 leaders: Antichain | None = None,
                 element: ModElement | None = None):
        self.config = config
        self.var_names = [] if var_names is None else var_names
        self.point = point
        self.eqs = eqs
        self.module_rank = module_rank
        self.gens = gens
        self.ranking_kind = ranking_kind
        self.leaders = leaders
        self.element = element

    @property
    def n(self):
        if self.module_rank is not None:
            return self.module_rank
        return len(self.var_names)

    def ranking(self):
        return Ranking(self.ranking_kind, tuple(range(self.n)))


def parse_input(text):
    """Parse a problem file; `#` starts a comment, sections are line-oriented.
    Each section body is tokenized once, with the columns of its line."""
    sections = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'section: content'", lineno)
        head, body = line.split(":", 1)
        sections.append((head.strip(), body, lineno, len(head) + 2))

    config = None
    for head, body, lineno, column in sections:
        if head == "field":
            config = _parse_field_line(body, lineno, column)
    if config is None:
        raise ParseError("missing 'field:' line", 1)

    pf = ProblemFile(config=config)
    pending = {}
    seen = set()
    for head, body, lineno, column in sections:
        if head in seen and head != "field":
            raise ParseError(f"duplicate section {head!r}", lineno)
        seen.add(head)
        if head == "field":
            continue
        elif head == "vars":
            pf.var_names = body.split()
            if len(pf.var_names) > MAX_MODULE_RANK:
                raise ParseError(f"{len(pf.var_names)} variables; the limit "
                                 f"is {MAX_MODULE_RANK}", lineno)
            for name in pf.var_names:
                if not name.isalnum() or not name[0].isalpha():
                    raise ParseError(f"bad variable name {name!r}", lineno)
                if name in _symbols(config):
                    raise ParseError(
                        f"variable name {name!r} collides with a built-in",
                        lineno)
        elif head == "ranking":
            body = body.strip()
            if body not in ("orderly", "elim", "elimination"):
                raise ParseError(f"unknown ranking {body!r}", lineno)
            pf.ranking_kind = "orderly" if body == "orderly" else "elimination"
        elif head == "module":
            pf.module_rank = _header_number(body, lineno, column,
                                            "module rank", MAX_MODULE_RANK)
            if pf.module_rank < 1:
                raise ParseError("module rank must be positive", lineno)
        elif head in ("point", "eqs", "gens", "leaders", "element"):
            pending[head] = (tokenize(body, lineno, column), lineno)
        else:
            raise ParseError(f"unknown section {head!r}", lineno)

    _finish_sections(pf, pending)
    if (pf.eqs is not None) and (pf.gens is not None):
        raise ParseError("give either equations+point or a raw module, "
                         "not both", 1)
    return pf


def _header_number(text, line, column, what, limit):
    """The count in a header: one numeral of ASCII digits, at most `limit`;
    `text` starts at `column` of line `line`."""
    tokens = tokenize(text, line, column)
    if len(tokens) != 1 or tokens[0].kind != "num":
        raise ParseError(f"{what} must be an integer", line)
    value = _int(tokens[0])
    if value > limit:
        raise ParseError(f"{what} {value}; the limit is {limit}", line,
                         tokens[0].column)
    return value


def _parse_field_line(body, lineno, column):
    """`Q`, `Q(t)` or `Q(t1, ..., tv)`, then optionally `derivations: m`."""
    m = None
    if "derivations" in body:
        body, _, count = body.partition("derivations:")
        m = _header_number(count, lineno,
                           column + len(body) + len("derivations:"),
                           "derivation count", MAX_DERIVATIONS)
    tokens = tokenize(body, lineno, column)
    groups = []
    if [tok.text for tok in tokens[:2]] == ["Q", "("] \
            and tokens[-1].kind == ")":
        groups = _split_tokens(tokens[2:-1], ",")
    elif [tok.text for tok in tokens] != ["Q"]:
        raise ParseError(f"unrecognized field {body.strip()!r}", lineno)
    names = [" ".join(tok.text for tok in group) for group in groups]
    for i, (name, group) in enumerate(zip(names, groups)):
        if name != f"t{i + 1}" and names != ["t"]:
            raise ParseError(
                f"field variables must be t or t1..tv, got {name!r}",
                lineno, group[0].column if group else None)
    v = len(names)
    if v > MAX_DERIVATIONS:
        raise ParseError(f"{v} field variables; the limit is "
                         f"{MAX_DERIVATIONS}", lineno)
    m = max(v, 1) if m is None else m
    if m < 1:
        raise ParseError("derivation count must be positive", lineno)
    if m < v:
        raise ParseError("derivation count below the variable count", lineno)
    return DiffFieldConfig(num_derivations=m, num_vars=v)


def _finish_sections(pf, pending):
    """Parse the deferred sections, given as {head: (tokens, lineno)}; each
    list in them is split by `_split_tokens`."""
    config = pf.config
    if "point" in pending:
        tokens, lineno = pending["point"]
        coords = {}
        for entry in _split_tokens(tokens, ","):
            if len(entry) < 2 or entry[1].kind != "=":
                raise ParseError("point entries look like 'y = expr'", lineno,
                                 entry[0].column if entry else None)
            name = entry[0]
            if name.text not in pf.var_names:
                raise ParseError(f"unknown variable {name.text!r} in point",
                                 name.line, name.column)
            coords[name.text] = parse_ratfun(entry[2:], config, lineno)
        missing = [v for v in pf.var_names if v not in coords]
        if missing:
            raise ParseError(f"point misses coordinates for {missing}", lineno)
        pf.point = VarietyPoint(config,
                                [coords[v] for v in pf.var_names])
    if "eqs" in pending:
        tokens, lineno = pending["eqs"]
        if not pf.var_names:
            raise ParseError("'eqs:' needs a preceding 'vars:' line", lineno)
        pf.eqs = [parse_diffpoly(group, config, pf.var_names, lineno)
                  for group in _split_tokens(tokens, ";") if group]
        if not pf.eqs:
            raise ParseError("empty equation list", lineno)
    for head in ("gens", "element"):
        if head in pending and pf.module_rank is None:
            raise ParseError(f"'{head}:' needs a preceding 'module:' line",
                             pending[head][1])
    if "gens" in pending:
        tokens, lineno = pending["gens"]
        pf.gens = [parse_generator_vector(group, config, pf.module_rank,
                                          lineno)
                   for group in _split_tokens(tokens, ";") if group]
    if "element" in pending:
        tokens, lineno = pending["element"]
        pf.element = parse_generator_vector(tokens, config, pf.module_rank,
                                            lineno)
    if "leaders" in pending:
        tokens, lineno = pending["leaders"]
        pf.leaders = Antichain(config.m, tuple(
            frozenset(_parse_leader_group(group, config.m, lineno))
            for group in _split_tokens(tokens, ";")))


def _parse_leader_group(tokens, m, lineno):
    """`[(1,1), (0,2)]` -> set of exponent tuples; `[2]` works for m = 1,
    and `[]` is a component without leaders."""
    if not tokens or tokens[0].kind != "[" or tokens[-1].kind != "]":
        raise ParseError("leader group must be bracketed", lineno,
                         tokens[0].column if tokens else None)
    vectors = set()
    for entry in _leader_list(tokens[1:-1], tokens[-1]):
        first, coords = entry[0], [entry]
        if first.kind == "(":
            end = next((i for i, tok in enumerate(entry) if tok.kind == ")"),
                       None)
            if end is None:
                raise ParseError("unterminated leader tuple", lineno,
                                 first.column)
            if end + 1 < len(entry):
                raise _unexpected_in_leaders(entry[end + 1])
            coords = _leader_list(entry[1:end], entry[end])
        for coord in coords:
            if coord[0].kind != "num" or len(coord) > 1:
                raise _unexpected_in_leaders(
                    coord[1] if coord[0].kind == "num" else coord[0])
        vec = tuple(_int(coord[0]) for coord in coords)
        if len(vec) != m:
            raise ParseError(f"leader {vec} has length {len(vec)}, "
                             f"expected {m}", lineno, first.column)
        vectors.add(vec)
    return vectors


def _leader_list(tokens, after):
    """The comma-separated entries of `tokens`, none when it is empty; an
    empty entry is an error at the token after it, `after` for the last."""
    if not tokens:
        return []
    entries = _split_tokens(tokens, ",")
    end = -1
    for entry in entries:
        end += len(entry) + 1
        if not entry:
            raise _unexpected_in_leaders((tokens + [after])[end])
    return entries


def _unexpected_in_leaders(tok):
    return ParseError(f"unexpected {tok.text!r} in leaders", tok.line,
                     tok.column)
