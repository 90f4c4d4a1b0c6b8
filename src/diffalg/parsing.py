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
`d`/`d_i`, sums, signs, products and powers that need no commutation rule
and quotients by numerals stay data, so a literal costs no field or
operator arithmetic.  Anything else builds its `RatFun`, `OrePoly` or
`DiffPoly` once (`_ExprParser.ring`) and goes through that ring: `d*t` is
`t*d + 1`, division is by base-field elements only and negative powers
exist only in the base field, as powers of the inverse.  Every product the
parser computes is charged, before it is computed, an estimate of its cost
taken from its operands (`_product_work`, `_work`); a data value of one
term carries the bit length of its integer, so the product of two such
looks at no coefficient.  A power is k such products, but zero is its own
power, and one term of data, of the base field, of a differential
polynomial or of an operator that commutes with itself is raised in
closed form, charged a quarter of the bits its integers gain.  Past
`MAX_PARSE_WORK` in all the expressions of one problem file, or in the
one expression of a `parse_*` call, the product is a `ParseError` at its
operator.

A problem file is read a line at a time.  Each section body is tokenized
once, where it sits in its line, so every error inside it names the column
of the line, not of a piece; only a well-formed `leaders:` body, which
holds no parse error, is read directly with string methods
(`_read_leaders`).  Every list in a tokenized body (`;` between generators,
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
from math import gcd, lcm
from operator import add

from .errors import DivisionByZero, ParseError
from .field import DiffFieldConfig, MPoly, RatFun, _pack, _poly, _unpack
from .ore import OrePoly
from .diffmodule import ModElement, Ranking, orderly_ranking
from .numpoly import Antichain
from .record import Record
from .variety import DiffPoly, VarietyPoint


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = set("+-*/^()[],;='")
_DIGITS = set("0123456789")
_BLANKS = " \t"


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

# The work one problem file may spend on products, in the units of `_work`:
# about one pair of terms multiplied, 0.3-0.5 us of CPU on a 2-core shared
# machine.  The weights of `_product_work` and `_work` were fitted on the
# CPU time of powers and written-out products of every kind the parser
# builds.  Measured in-process through `diffalg.cli.main` (CPU, 2-core
# shared machine), the largest accepted inputs charge at most 310,000 and
# answer in at most 0.1 s: `(t + 1)^500*d`, `(t*d)^100`, `(d + 1)^100`,
# `(t1 + t2 + 1)^69` and `(2*t)^1000000*d + 1`.  Refused inputs stop at
# their operator within 0.35 s, where they took seconds before:
# `((t^2+t+1)*d + t)^100` (7.8 s), `(t1*d1 + t2*d2)^50` (4.6 s),
# `(1/t*d + t)^100` (2.0 s), `d^1000*(1/t)` (19.5 s) and, in `eqs:`,
# `(y + z + y' + z' + t + 1)^25` (68.6 s).
MAX_PARSE_WORK = 500_000

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


class _Data:
    """A subexpression held as integers: `terms` maps a derivation monomial
    (an exponent tuple of length m) to a base-field polynomial, a dict from
    packed `MPoly` keys to nonzero ints, and every polynomial is over the one
    positive integer `den`.  Each dict belongs to this value alone, so a sum
    or a sign changes it in place.  `bits` bounds the bit length of the
    integer of a value built as one term, and is None on any other."""

    __slots__ = ("terms", "den", "bits")

    def __init__(self, terms, den=1, bits=None):
        self.terms = terms
        self.den = den
        self.bits = bits


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


def _product(p, q, nvars):
    """p*q as a new dict, for polynomial dicts p and q in nvars variables
    (`MPoly`'s product builds one when neither factor is a constant)."""
    if len(q) == 1 and 0 in q:
        p, q = q, p
    if len(p) == 1 and 0 in p:
        c = p[0]
        return {e: c * a for e, a in q.items()}
    return (_poly(nvars, p) * _poly(nvars, q)).terms


def _bits(*integers):
    """The sum of ceil(log2 |c|) over the nonzero integers: the bits that
    their product gains per power, give or take one each."""
    return sum((abs(c) - 1).bit_length() for c in integers)


def _words(p):
    """The size of the polynomial dict p: a 64-bit word per term and one
    per 64 bits of its coefficients."""
    return len(p) + (sum(map(int.bit_length, p.values())) >> 6)


def _product_work(pairs, term_pairs, word_pairs):
    """64 for a product, 16 per pair of coefficients of its factors, a unit
    per pair of terms and 1/64 per pair of 64-bit words."""
    return 64 + 16 * pairs + term_pairs + (word_pairs >> 6)


def _data_size(x):
    """(coefficients, terms, words) of the _Data x, as `_size` of a ring
    value."""
    if x.bits is not None:
        return 1, 1, 1 + (x.bits >> 6)
    polys = x.terms.values()
    return len(polys), sum(map(len, polys)), sum(map(_words, polys))


def _size(value, orders=False):
    """(coefficients, terms, words, the sum of words squared over the
    quotients, whether a product with `value` on the right derives its
    coefficients, the sum of the cubes of the orders) of a RatFun, OrePoly
    or DiffPoly; a quotient is a coefficient over a denominator that is not
    a constant.  With `orders`, a coefficient of derivation order k counts
    k + 1 times in the first three."""
    items = (((), value),) if isinstance(value, RatFun) \
        else value.terms.items()
    orders = orders and type(value) is OrePoly
    n = terms = words = quotients = cubes = 0
    derives = False
    for key, c in items:
        k = sum(key) if orders else 0
        t = len(c.num.terms) + len(c.den.terms)
        w = _words(c.num.terms) + _words(c.den.terms)
        n += k + 1
        terms += (k + 1) * t
        words += (k + 1) * w
        cubes += k ** 3
        if not c.den.is_const():
            quotients += w * w
        derives = derives or not c.is_const()
    return n, terms, words, quotients, derives, cubes


def _work(left, right):
    """Estimated cost of left*right, from the sizes of its factors: each
    coefficient of left, of derivation order k, meets every coefficient of
    right k + 1 times (`_product_work`).  Deriving a quotient k times costs
    k^3 times its words squared: each derivative grows by its denominator.
    The order counts only when some coefficient of right is not a
    constant, since delta^k only shifts a constant."""
    n, terms, words, quotients, derives, _ = _size(right)
    n2, terms2, words2, _, _, cubes = _size(left, derives)
    return _product_work(n * n2, terms * terms2, words * words2) \
        + cubes * quotients


class _ExprParser:
    """Parses tokens into a value over `config`: a base-field element, an
    operator (with `deltas`) or a differential polynomial in the names of
    `var_names`; any other name is a ParseError "<unknown> 'name'".

    A subexpression stays `_Data` under numerals, field variables, d/d_i,
    `+`, `-`, signs, `*` unless a field factor stands right of a
    derivation, `/` by a numeral, and `^k`, k >= 0, of a value whose
    products with itself need no commutation rule.  Anything else builds
    its `RatFun`, `OrePoly` or `DiffPoly` once (`ring`) and goes through
    that ring's operators and the rules of `divide` and `power`, so `d*t`
    is still `t*d + 1`.  Every product is charged first (`spend`) to
    `spent`, a one-item list of the work spent so far that the expressions
    of one problem file share; a new one when it is None.
    """

    def __init__(self, tokens, config, line, unknown, deltas=False,
                 var_names=None, spent=None):
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
        self.spent = [0] if spent is None else spent

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
                value.bits = None
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

    def spend(self, work, tok):
        """Charge `work` to `spent`; past MAX_PARSE_WORK in all it is a
        ParseError at `tok`, the operator that asked for it."""
        self.spent[0] += work
        if self.spent[0] > MAX_PARSE_WORK:
            raise ParseError(f"the products of this problem file need "
                             f"more than {MAX_PARSE_WORK} units of work",
                             tok.line, tok.column)

    def multiply(self, value, rhs, tok):
        # no commutation rule is needed when value holds no derivation or
        # rhs only constant coefficients
        if not (type(value) is _Data and type(rhs) is _Data and (
                value.terms.keys() <= {self.scalar} or all(
                    p.keys() == {0} for p in rhs.terms.values()))):
            value, rhs = self.ring(value), self.ring(rhs)
            self.spend(_work(value, rhs), tok)
            return value * rhs
        (n, t, w), (n2, t2, w2) = _data_size(value), _data_size(rhs)
        self.spend(_product_work(n * n2, t * t2, w * w2), tok)
        terms = {}
        for dx, p in value.terms.items():
            for dy, q in rhs.terms.items():
                _merge(terms, tuple(map(add, dx, dy)),
                       _product(p, q, self.config.v))
        a, b = value.bits, rhs.bits
        return _Data(terms, value.den * rhs.den,
                     None if a is None or b is None else a + b)

    def divide(self, value, rhs, tok):
        if type(rhs) is _Data and rhs.terms.keys() == {self.scalar} \
                and rhs.terms[self.scalar].keys() == {0}:
            # a nonzero numeral c: multiply by 1/c
            c = rhs.terms[self.scalar][0]
            return self.multiply(value, _Data(
                {self.scalar: {0: rhs.den if c > 0 else -rhs.den}}, abs(c),
                rhs.den.bit_length()), tok)
        divisor = _field_value(self.ring(rhs))
        if divisor is None:
            raise ParseError("can only divide by a base-field element",
                             tok.line, tok.column)
        if not divisor:
            raise DivisionByZero(self.zero_message)
        return self.multiply(value, divisor.inverse(), tok)

    def power(self, base, k, tok):
        """base^k as k left products base*result from 1, each charged;
        negative powers exist only in the base field, as powers of the
        inverse, and zero is its own power.  A field element, a
        differential polynomial of one term, or an operator of one term
        with no derivation or a constant coefficient, that coefficient a
        quotient of two monomials, is raised in closed form, charged a
        quarter of the bits its integers gain; the values of such a power
        at a point are bounded where they are computed
        (`variety.MAX_POINT_POWER_BITS`)."""
        if k < 0:
            base = _field_value(self.ring(base))
            if base is None:
                raise ParseError("negative power of an expression outside "
                                 "the base field", tok.line, tok.column)
            base, k = base.inverse(), -k
        if k and not (base if isinstance(base, RatFun) else base.terms):
            return base
        terms = {self.scalar: base} if isinstance(base, RatFun) \
            else base.terms
        if len(terms) == 1:
            (key, coeff), = terms.items()
            if type(base) is _Data:
                if len(coeff) == 1 and (key == self.scalar or 0 in coeff):
                    (e, c), = coeff.items()
                    self.spend(k * _bits(c, base.den) >> 2, tok)
                    if e:
                        e = _pack([a * k for a in _unpack(e, self.config.v)])
                    c **= k
                    return _Data({tuple(a * k for a in key): {e: c}},
                                 base.den ** k, c.bit_length())
            elif len(coeff.num.terms) == 1 == len(coeff.den.terms) \
                    and (key == self.scalar or coeff.is_const()
                         or type(base) is DiffPoly):
                self.spend(k * _bits(*coeff.num.terms.values(),
                                     *coeff.den.terms.values()) >> 2, tok)
                return base ** k
        result = _Data({self.scalar: {0: 1}}, 1, 1)
        for _ in range(k):
            result = self.multiply(base, result, tok)
        return result

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
            value = _Data({self.scalar: {0: k}}, 1, k.bit_length()) if k \
                else _Data({})
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
                return _Data({symbol[0]: {symbol[1]: 1}}, 1, 1)
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

def parse_ratfun(text, config, line=1, _spent=None):
    """Rational expression over the field variables."""
    return _parse_with(text, config, line, "unknown field variable",
                       spent=_spent)


def parse_orepoly(text, config, line=1, _spent=None):
    """Operator expression over field variables and d / d1..dm."""
    value = _parse_with(text, config, line, "unknown symbol", deltas=True,
                        spent=_spent)
    if isinstance(value, RatFun):
        return OrePoly.from_scalar(config, value)
    return value


def parse_diffpoly(text, config, var_names, line=1, _spent=None):
    """Differential polynomial over the declared variables."""
    value = _parse_with(text, config, line, "unknown variable",
                        var_names=var_names, spent=_spent)
    if isinstance(value, RatFun):
        return DiffPoly.const(config, len(var_names), value)
    return value


def parse_generator_vector(text, config, n, line=1, _spent=None):
    """`[oreexpr, ..., oreexpr]` with exactly n coordinates -> ModElement."""
    tokens = _tokens(text, line)
    column = tokens[0].column if tokens else None
    if not tokens or tokens[0].kind != "[" or tokens[-1].kind != "]":
        raise ParseError("generator vector must be bracketed", line, column)
    groups = _split_tokens(tokens[1:-1], ",")
    if len(groups) != n:
        raise ParseError(f"expected {n} coordinates, found {len(groups)}",
                         line, column)
    coords = [parse_orepoly(g, config, line, _spent) if g
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
    Each section body but a well-formed `leaders:` one is tokenized once,
    with the columns of its line."""
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
        elif head == "leaders":
            groups = _read_leaders(body, config.m)
            pending[head] = (tokenize(body, lineno, column)
                             if groups is None else groups, lineno)
        elif head in ("point", "eqs", "gens", "element"):
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
    list in them is split by `_split_tokens`, and all their expressions
    share one work budget, the `_spent` of the parse functions."""
    config = pf.config
    spent = [0]
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
            coords[name.text] = parse_ratfun(entry[2:], config, lineno,
                                             spent)
        missing = [v for v in pf.var_names if v not in coords]
        if missing:
            raise ParseError(f"point misses coordinates for {missing}", lineno)
        pf.point = VarietyPoint(config,
                                [coords[v] for v in pf.var_names])
    if "eqs" in pending:
        tokens, lineno = pending["eqs"]
        if not pf.var_names:
            raise ParseError("'eqs:' needs a preceding 'vars:' line", lineno)
        pf.eqs = [parse_diffpoly(group, config, pf.var_names, lineno, spent)
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
                                          lineno, spent)
                   for group in _split_tokens(tokens, ";") if group]
    if "element" in pending:
        tokens, lineno = pending["element"]
        pf.element = parse_generator_vector(tokens, config, pf.module_rank,
                                            lineno, spent)
    if "leaders" in pending:
        groups, lineno = pending["leaders"]
        if type(groups) is list:        # tokens: `_read_leaders` declined
            groups = tuple(
                frozenset(_parse_leader_group(group, config.m, lineno))
                for group in _split_tokens(groups, ";"))
        pf.leaders = Antichain(config.m, groups)


def _read_leaders(body, m):
    """The leader groups of a well-formed `leaders:` body, read with string
    methods: `[` tuples `]` groups between `;`, each tuple `(n1,...,nm)`
    of m numerals of ASCII digits that the interpreter converts, blanks
    (space or tab) anywhere between them, and `[]` for a group without
    leaders.  The tuple of frozensets is the one `_parse_leader_group`
    makes; None for any other body, which the tokens read and refuse."""
    if not body.isascii():
        return None
    limit = sys.get_int_max_str_digits()
    long = 0 < limit < len(body)    # only then may a numeral pass the limit
    groups = []
    for group in body.split(";"):
        group = group.strip(_BLANKS)
        if not (group.startswith("[") and group.endswith("]")):
            return None
        first, *tuples = group[1:-1].split("(")
        if first.strip(_BLANKS):
            return None
        vectors = set()
        # `after` is the comma between tuples, and nothing after the last
        for after, entry in enumerate(tuples, 1 - len(tuples)):
            numerals, close, rest = entry.partition(")")
            if not close or rest.strip(_BLANKS) != ("," if after else ""):
                return None
            numerals = numerals.split(",")
            if not "".join(numerals).isdigit():
                numerals = [x.strip(_BLANKS) for x in numerals]
                if not "".join(numerals).isdigit():
                    return None
            if len(numerals) != m or not all(numerals) \
                    or long and max(map(len, numerals)) > limit:
                return None
            vectors.add(tuple(map(int, numerals)))
        groups.append(frozenset(vectors))
    return tuple(groups)


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
