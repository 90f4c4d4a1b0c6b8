"""Input grammar: rational, operator, and differential-polynomial expressions,
plus the line-oriented problem-file format consumed by the CLI.

Expressions use `+ - * / ^`, numerals of ASCII digits, field variables `t`
(one) or `t1..tv`, derivations `d` (one) or `d1..dm`, with `t1` and `d1`
the only aliases of a single `t` or `d`, and `y'`, `y''` or `y_(2,1)` for
derivatives of the differential indeterminates.  The symbol table
(`_symbols`), the derivative labels (`term_label`) and the printers'
signed-sum joiner, which takes each term's sign as data, are each written
once here.  A numeral too long to convert is a `ParseError`.

The lexical rules are written once (`_Reader.end`), and the lexical errors
of every section body are raised, in file order, before any body is read
(`_check`).  The data sections `field:`, `module:` and `leaders:` are read
with string methods (`_read_field`, `_read_count`, `_leader_groups`); only
an error builds a reader, to find the separators inside brackets
(`_shape`) and name the token at fault.  The header counts are capped by
`MAX_MODULE_RANK` and `MAX_DERIVATIONS`.  The expressions of the other
sections are read by one reader, `_Reader`, that scans a body by index
where it sits in its line and builds no tokens; a column is worked out
from an offset only for an error.  The grammar consumes the `;` and `,` of
every list itself, and a generator vector is walked once for its shape
(`_shape`) before any coordinate is read.

An expression is read by `parse_expr` and `parse_term` over one factor
step, `parse_factor` (signs, an atom with its primes, and `^`).  A
subexpression stays integer data (`_Data`) while it needs no commutation
rule and divides only by numerals, so a literal costs no field or operator
arithmetic; anything else builds its `RatFun`, `OrePoly` or `DiffPoly`
once (`_ExprParser.ring`) and goes through that ring.  Every product, and
every sum of ring values that brings denominators together, is charged
before it is computed an estimate of its cost (`_work`, `_sum_work`);
past `MAX_PARSE_WORK` in all the expressions of one problem file, or in
the one expression of a `parse_*` call, the operation is a `ParseError` at
its operator.  `MAX_NESTING` bounds the recursion, one level per
parenthesis.

Every value is checked once, here, as it is read, and the values built
from checked parts are built trusted (`field._ratfun`, `TermMap._new`),
with no second pass through a validating constructor: the coefficients
of each coordinate of a generator vector go straight into its module
element's terms (`_vector`).
"""

from __future__ import annotations

import functools
import sys
from math import gcd, lcm
from operator import add

from .errors import DivisionByZero, NotAntichain, ParseError
from .field import (DiffFieldConfig, MPoly, RatFun, _pack, _poly, _ratfun,
                    _unpack)
from .ore import OrePoly
from .diffmodule import ModElement, Ranking, orderly_ranking
from .numpoly import Antichain
from .record import Record
from .variety import DiffPoly, VarietyPoint


# ---------------------------------------------------------------------------
# the reader

_DIGITS = "0123456789"
_SYMBOLS = "+-*/^()[],;='"
_BLANKS = " \t"
# the characters of plain text, which holds no lexical error
_PLAIN = (_DIGITS + _SYMBOLS + _BLANKS).encode() + bytes(range(65, 91)) \
    + bytes(range(97, 123))
# the characters that no bracket or separator token holds
_INERT = _PLAIN.decode().translate({ord(c): None for c in "[](),;"})


class _Reader:
    """`text`, a section body or one expression at column `column` of line
    `line`, read by index: `i` is the offset of the next token and `c` its
    first character, "" at the end.  A token is a numeral of ASCII digits,
    a name (a letter, then letters and digits) with an optional suffix
    `_( ... )` up to the first `)`, or one of `_SYMBOLS`; blanks
    (`str.isspace`) stand between tokens and drop out of a suffix."""

    def __init__(self, text, line, column=1):
        self.text, self.line, self.column = text, line, column
        self.to(0)

    def error(self, message, at):
        return ParseError(message, self.line, self.column + at)

    def to(self, i):
        """Move to offset i and past the blanks there."""
        c = self.text[i:i + 1]
        if c.isspace():
            text = self.text
            while c.isspace():
                i += 1
                c = text[i:i + 1]
        self.i, self.c = i, c

    def end(self, at):
        """The offset past the token at `at`, which must start one."""
        text, j = self.text, at + 1
        c = text[at]
        if c in _SYMBOLS:
            return j
        if c in _DIGITS:
            while True:     # the digits, 32 characters a step
                chunk = text[j:j + 32]
                rest = chunk.lstrip(_DIGITS)
                j += len(chunk) - len(rest)
                if rest or not chunk:
                    return j
        if c.isalpha():
            while text[j:j + 1].isalnum():
                j += 1
            if text.startswith("_(", j):
                j = text.find(")", j) + 1
                if not j:
                    raise self.error("unterminated multi-index", at)
        elif c == "_":
            raise self.error("stray '_' outside a name", at)
        else:
            raise self.error(f"unexpected character {c!r}", at)
        return j

    def token(self, at, end=None):
        """The text of the token at `at`, which ends at `end` if given."""
        word = self.text[at:end or self.end(at)]
        return "".join(word.split()) if "_(" in word else word

    def numeral(self, at, end):
        return _numeral(self.text[at:end], self.line, self.column + at)


def _numeral(word, line, column):
    """The value of the numeral `word` at `column` of line `line`; one too
    long for the interpreter to convert is a ParseError at it."""
    try:
        return int(word)
    except ValueError:
        raise ParseError(f"numeral of {len(word)} digits; the limit is "
                         f"{sys.get_int_max_str_digits()} digits", line,
                         column) from None


def _check(text, line, column=1):
    """Raise the first lexical error of `text`, if it has one."""
    if not text.isascii() or text.encode().translate(None, _PLAIN):
        r = _Reader(text, line, column)
        while r.c:
            r.to(r.end(r.i))


def _shape(r, groups, noun, brackets="[]"):
    """The offsets that bound the parts of the group at `i`: its first
    token, each `,` one bracket deep and its last token, which with the
    first must be `brackets`; else a ParseError "<noun> must be
    bracketed" at the first token.  With `groups` a `;` outside brackets
    ends the group, else the text does; `i` is left there.  The text is
    lexically checked (`_check`), so it is walked a run of letters,
    digits, blanks and operators at a time: outside the suffix `_( ... )`
    of a name each of `[](),;` is a token."""
    text, k, n = r.text, r.i, len(r.text)
    commas, depth, suffix = [], 0, None
    while k < n:
        c = text[k]
        if c in "[](),;":
            if c == ";" and groups and not depth:
                break
            if c == "," and depth == 1:
                commas.append(k)
            depth += (c in "([") - (c in ")]")
        elif c == "_":
            k = suffix = text.index(")", k)
        else:
            run = text[k:k + 64]
            k += len(run) - len(run.lstrip(_INERT)) or 1
            continue
        k += 1
    first = r.i
    last = first + len(text[first:k].rstrip()) - 1
    r.to(k)
    if first <= last != suffix and text[first] + text[last] == brackets:
        return [first, *commas, last]
    raise ParseError(f"{noun} must be bracketed", r.line,
                     r.column + first if first <= last else None)


# ---------------------------------------------------------------------------
# expression parser

# The work one problem file may spend on products and on sums that bring
# denominators together, in the units of `_work`: about one pair of terms
# multiplied, 0.3-0.5 us of CPU on a 2-core shared machine.  The weights of
# `_product_work` and `_work` were fitted on the CPU time of powers and
# written-out products of every kind the parser builds.  The largest charge
# of a text of the seed-71 benchmark corpora is 5,273 (pde-charset; sums
# charge 0 on all three), and of an input the test suite accepts 460,621
# (`[(t*d)^150]`).  Measured in-process through `diffalg.cli.main` (CPU,
# 2-core shared machine), the largest accepted inputs answer in at most
# 0.3 s: `(t + 1)^500*d`, `(t*d)^100`, `(d + 1)^100`, `(t1 + t2 + 1)^69`,
# `(2*t)^1000000*d + 1` and `1/(t+1) + ... + 1/(t+400)` (272,504).
# Refused inputs stop at their operator within 0.7 s, where they took
# seconds before: `((t^2+t+1)*d + t)^100` (7.8 s), `(t1*d1 + t2*d2)^50`
# (4.6 s), `(1/t*d + t)^100` (2.0 s), `d^1000*(1/t)` (19.5 s),
# `1/(t+1) + ... + 1/(t+800)` (1.7 s) and, in `eqs:`,
# `(y + z + y' + z' + t + 1)^25` (68.6 s).
MAX_PARSE_WORK = 500_000

# Caps on the counts in a problem file's header, checked as it is read,
# before any symbol table or ranking is built.  The derivation count m (from
# `derivations:`, or the number of field variables, which m may not be
# below) costs about m^2: every d_i is keyed by an m-tuple, and the dimension
# polynomial has degree up to m.  The rank n (`module:`, or the number of
# `vars:`) costs about n^2 per n x n matrix of the diagonalization, whose
# pivot search reads the least degree kept for each row.
# Process wall times on a 2-core shared machine, best of three, about
# 0.1 s of each the interpreter's start: `dimpoly` of `gens: [d1]` takes
# 0.33 s at m = 500, 1.1 s at m = 1000 and 4.3 s at m = 2000; `decompose`
# of one generator `[d, 0, ..., 0]` takes 0.25 s at n = 100, 0.27 s at
# n = 200, 0.30 s at n = 300 and 0.68 s at n = 1000; `tangent` with n
# `vars:` and the one equation `y0' - 1` 0.27-0.30 s at n = 100 and 200
# and 0.90 s at n = 1000, and with the n equations `yi' - 1` 0.16 s,
# 0.25-0.29 s and 0.46-0.56 s at n = 100, 200 and 300.
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
    """(coefficients, terms, words, the sums of words squared over the
    quotients by a polynomial and by a monomial, whether a product with
    `value` on the right derives its coefficients, the sums of k^3 and of
    min(k, 8)*k^2 over the orders k) of a RatFun, OrePoly or DiffPoly; a
    quotient is a coefficient over a denominator that is not a constant.
    With `orders`, a coefficient of derivation order k counts k + 1 times
    in the first three."""
    items = (((), value),) if isinstance(value, RatFun) \
        else value.terms.items()
    orders = orders and type(value) is OrePoly
    n = terms = words = quotients = monomials = cubes = squares = 0
    derives = False
    for key, c in items:
        k = sum(key) if orders else 0
        t = len(c.num.terms) + len(c.den.terms)
        w = _words(c.num.terms) + _words(c.den.terms)
        n += k + 1
        terms += (k + 1) * t
        words += (k + 1) * w
        cubes += k ** 3
        squares += min(k, 8) * k * k
        if len(c.den.terms) > 1:
            quotients += w * w
        elif not c.den.is_const():
            monomials += w * w
        derives = derives or not c.is_const()
    return n, terms, words, quotients, monomials, derives, cubes, squares


def _work(left, right):
    """Estimated cost of left*right, from the sizes of its factors: each
    coefficient of left, of derivation order k, meets every coefficient of
    right k + 1 times (`_product_work`).  Deriving a quotient k times costs
    k^3 times its words squared, since each derivative grows by its
    denominator.  Over a monomial, past k = 8, it costs 8*k^2 times them:
    each derivative gains only integer bits, since the k-th derivative of
    c/t^b has one term, and `d^k*(1/t)` takes about 3.5 us per k^2
    (2-core machine).  The order counts only when some coefficient of
    right is not a constant, since delta^k only shifts a constant."""
    n, terms, words, quotients, monomials, derives, _, _ = _size(right)
    n2, terms2, words2, _, _, _, cubes, squares = _size(left, derives)
    return _product_work(n * n2, terms * terms2, words * words2) \
        + cubes * quotients + squares * monomials


def _sum_work(left, right):
    """Estimated cost of left + right or left - right, ring values: each
    pair of coefficients with one key over denominators that are not
    constants takes a gcd of those, charged `_product_work(1, t1*t2,
    w1*w2)` over their terms and words.  The keys of the operand with
    fewer terms are looked up in the other, so that a long sum built a
    term at a time costs a lookup a term."""
    if isinstance(left, RatFun):
        left, right = right, left
    if isinstance(right, RatFun):       # a coefficient at the key of 1
        one = (0,) * left.config.m if type(left) is OrePoly else ()
        small = {one: right}
        big = {one: left} if isinstance(left, RatFun) else left.terms
    else:
        small, big = sorted((left.terms, right.terms), key=len)
    work = 0
    for key, c in small.items():
        if (d := big.get(key)) is not None and not (p := c.den).is_const() \
                and not (q := d.den).is_const():
            work += _product_work(1, len(p.terms) * len(q.terms),
                                  _words(p.terms) * _words(q.terms))
    return work


class _ExprParser(_Reader):
    """Reads expressions of `text` into values over `config`: a base-field
    element, an operator (with `deltas`) or a differential polynomial in the
    names of `var_names`; any other name is a ParseError
    "<unknown> 'name'".  An expression ends at the offset `stop` (the end
    of the text unless a caller moves it) or at one of `stops` outside
    parentheses.

    A subexpression stays `_Data` under numerals, field variables, d/d_i,
    `+`, `-`, signs, `*` unless a field factor stands right of a
    derivation, `/` by a numeral, and `^k`, k >= 0, of a value whose
    products with itself need no commutation rule.  Anything else builds
    its `RatFun`, `OrePoly` or `DiffPoly` once (`ring`) and goes through
    that ring's operators and the rules of `divide` and `power`, so `d*t`
    is still `t*d + 1`.  Every charge (`spend`) goes to `spent`, a one-item
    list of the work spent so far that the expressions of one problem file
    share; a new one when it is None.
    """

    def __init__(self, text, config, line, unknown, column=1, deltas=False,
                 var_names=None, spent=None, stops=""):
        super().__init__(text, line, column)
        self.config = config
        self.unknown = unknown
        self.deltas = deltas
        self.var_names = var_names
        self.index = {name: i for i, name in enumerate(var_names or ())}
        self.symbols = _symbols(config)
        self.zero_message = "division by the zero operator" if deltas \
            else "division by zero in the base field"
        self.scalar = (0,) * config.m
        self.depth = 0
        self.spent = [0] if spent is None else spent
        self.stops = stops
        self.stop = len(text)

    def at_end(self):
        """Whether the expression ends at `i`."""
        return self.i >= self.stop or self.c in self.stops and not self.depth

    def more(self):
        """`c`, unless the expression ends at `i` (`at_end`, inlined)."""
        if self.i >= self.stop or self.c in self.stops and not self.depth:
            raise ParseError("unexpected end of expression", self.line)
        return self.c

    def expression(self):
        """The ring value of the expression at `i`, which must end after
        it."""
        value = self.parse_expr()
        if not self.at_end():
            raise self.error(f"trailing input {self.token(self.i)!r}",
                             self.i)
        return self.ring(value)

    def parse_expr(self):
        value = self.parse_term()
        while (c := self.c) == "+" or c == "-":
            at = self.i
            self.to(at + 1)
            value = self.add(value, self.parse_term(), c == "-", at)
        return value

    def parse_term(self):
        value = self.parse_factor()
        while (c := self.c) == "*" or c == "/":
            at = self.i
            self.to(at + 1)
            rhs = self.parse_factor()
            value = self.multiply(value, rhs, at) if c == "*" \
                else self.divide(value, rhs, at)
        return value

    def parse_factor(self):
        """Signs, an atom with its primes, and `^` with its signed numeral;
        the signs apply to the power."""
        negative = False
        while (c := self.c) == "+" or c == "-":
            negative ^= c == "-"
            self.to(self.i + 1)
        at = self.i
        if self.more() in _DIGITS:
            end = self.end(at)
            value = self.constant(self.numeral(at, end))
            self.to(end)
        elif c.isalpha():
            end = self.end(at)
            self.to(end)
            primes = 0
            while self.c == "'":
                self.to(self.i + 1)
                primes += 1
            value = self.resolve(self.token(at, end), primes, at)
        elif c == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}", at)
            self.to(at + 1)
            value = self.parse_expr()
            if self.more() != ")":
                raise self.error(f"expected ')', found "
                                 f"{self.token(self.i)!r}", self.i)
            self.to(self.i + 1)
            self.depth -= 1
        else:
            raise self.error(f"unexpected token {c!r}", at)
        if self.c == "^":
            hat = self.i
            self.to(hat + 1)
            sign = 1
            while self.c == "-":
                self.to(self.i + 1)
                sign = -sign
            at = self.i
            if self.more() not in _DIGITS:
                raise self.error(f"expected 'num', found "
                                 f"{self.token(at)!r}", at)
            end = self.end(at)
            value = self.power(value, sign * self.numeral(at, end), hat)
            self.to(end)
        return self.negate(value) if negative else value

    def constant(self, k):
        return _Data({self.scalar: {0: k}}, 1, k.bit_length()) if k \
            else _Data({})

    def negate(self, value):
        if type(value) is not _Data:
            return -value
        _scale(value, -1)
        return value

    def ring(self, value):
        """`value` as a RatFun, OrePoly or DiffPoly; _Data is built here."""
        if type(value) is not _Data:
            return value
        v, den = self.config.v, value.den
        coeffs = {}
        for key, p in value.terms.items():
            g = gcd(den, *p.values()) if den > 1 else 1
            coeffs[key] = _ratfun(
                _poly(v, {e: c // g for e, c in p.items()} if g > 1 else p),
                MPoly.const(v, den // g))
        if coeffs.keys() <= {self.scalar}:
            return coeffs.get(self.scalar) or RatFun.from_const(v, 0)
        return OrePoly.zero(self.config)._new(coeffs)

    def spend(self, work, at):
        """Charge `work` to `spent`; past MAX_PARSE_WORK in all it is a
        ParseError at `at`, the operator that asked for it."""
        self.spent[0] += work
        if self.spent[0] > MAX_PARSE_WORK:
            raise self.error(f"the arithmetic of this problem file needs "
                             f"more than {MAX_PARSE_WORK} units of work", at)

    def add(self, value, rhs, negative, at):
        """value + rhs, or value - rhs when `negative`."""
        if type(value) is _Data and type(rhs) is _Data:
            den = lcm(value.den, rhs.den)
            if den != value.den:
                _scale(value, den // value.den)
                value.den = den
            k = den // rhs.den
            for key, p in rhs.terms.items():
                _merge(value.terms, key, p, -k if negative else k)
            value.bits = None
            return value
        value, rhs = self.ring(value), self.ring(rhs)
        if work := _sum_work(value, rhs):
            self.spend(work, at)
        return value - rhs if negative else value + rhs

    def multiply(self, value, rhs, at):
        # no commutation rule is needed when value holds no derivation or
        # rhs only constant coefficients
        if not (type(value) is _Data and type(rhs) is _Data and (
                value.terms.keys() <= {self.scalar} or all(
                    p.keys() == {0} for p in rhs.terms.values()))):
            value, rhs = self.ring(value), self.ring(rhs)
            self.spend(_work(value, rhs), at)
            return value * rhs
        (n, t, w), (n2, t2, w2) = _data_size(value), _data_size(rhs)
        self.spend(_product_work(n * n2, t * t2, w * w2), at)
        terms = {}
        for dx, p in value.terms.items():
            for dy, q in rhs.terms.items():
                _merge(terms, tuple(map(add, dx, dy)),
                       _product(p, q, self.config.v))
        a, b = value.bits, rhs.bits
        return _Data(terms, value.den * rhs.den,
                     None if a is None or b is None else a + b)

    def divide(self, value, rhs, at):
        if type(rhs) is _Data and rhs.terms.keys() == {self.scalar} \
                and rhs.terms[self.scalar].keys() == {0}:
            # a nonzero numeral c: multiply by 1/c
            c = rhs.terms[self.scalar][0]
            return self.multiply(value, _Data(
                {self.scalar: {0: rhs.den if c > 0 else -rhs.den}}, abs(c),
                rhs.den.bit_length()), at)
        divisor = _field_value(self.ring(rhs))
        if divisor is None:
            raise self.error("can only divide by a base-field element", at)
        if not divisor:
            raise DivisionByZero(self.zero_message)
        return self.multiply(value, divisor.inverse(), at)

    def power(self, base, k, at):
        """base^k as k left products base*result from 1, each charged;
        negative powers exist only in the base field, as powers of the
        inverse, and zero is its own power.  A field element, a
        differential polynomial of one term, or an operator of one term
        with no derivation or a constant coefficient, that coefficient a
        quotient of two monomials, is raised in closed form, charged a
        quarter of the bits its integers gain; the values of such a power
        at a point are bounded where they are computed, by `field.MAX_BITS`
        (`variety.eval_diffpoly`)."""
        if k < 0:
            base = _field_value(self.ring(base))
            if base is None:
                raise self.error("negative power of an expression outside "
                                 "the base field", at)
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
                    self.spend(k * _bits(c, base.den) >> 2, at)
                    if e:
                        e = _pack([a * k for a in _unpack(e, self.config.v)])
                    c **= k
                    return _Data({tuple(a * k for a in key): {e: c}},
                                 base.den ** k, c.bit_length())
            elif len(coeff.num.terms) == 1 == len(coeff.den.terms) \
                    and (key == self.scalar or coeff.is_const()
                         or type(base) is DiffPoly):
                self.spend(k * _bits(*coeff.num.terms.values(),
                                     *coeff.den.terms.values()) >> 2, at)
                return base ** k
        result = _Data({self.scalar: {0: 1}}, 1, 1)
        for _ in range(k):
            result = self.multiply(base, result, at)
        return result

    def resolve(self, word, primes, at):
        """The value of the name `word`, the token at offset `at`, followed
        by `primes` primes."""
        name, dexps = word, None
        if "_(" in word:
            name, rest = word.split("_(", 1)
            # ASCII digits, as in numerals, after an optional '-' that is
            # refused below; int() alone would also take '1_0', '+1',
            # Unicode digits and whitespace
            entries = rest.rstrip(")").split(",")
            try:
                if not all((q := p.lstrip("-")) and q.isascii()
                           and q.isdigit() for p in entries):
                    raise ValueError
                dexps = tuple(map(int, entries))
            except ValueError:
                raise self.error(f"bad multi-index in {word!r}", at) from None
            if any(k < 0 for k in dexps):
                raise self.error("negative entry in multi-index", at)
        if primes and dexps is not None:
            raise self.error("mixed prime and multi-index suffix", at)
        if primes:
            dexps = (primes,)
        config = self.config
        if name in self.index:
            exps = dexps if dexps is not None else (0,) * config.m
            if len(exps) == 1 and config.m > 1:
                raise self.error(f"{name!r} needs a multi-index of length "
                                 f"{config.m}", at)
            if len(exps) != config.m:
                raise self.error(f"multi-index of wrong length for {name!r}",
                                 at)
            return DiffPoly.indeterminate(config, len(self.var_names),
                                          self.index[name], exps)
        if dexps is None:
            symbol = self.symbols.get(name)
            if symbol and (self.deltas or symbol[0] == self.scalar):
                return _Data({symbol[0]: {symbol[1]: 1}}, 1, 1)
        elif self.var_names is None:
            raise self.error(f"{name!r} cannot carry a derivative suffix", at)
        raise self.error(f"{self.unknown} {name!r}", at)


def _field_value(value):
    """The base-field element that `value` is, or None when it holds a
    derivation operator or an indeterminate."""
    if isinstance(value, RatFun):
        return value
    one = (0,) * value.config.m if isinstance(value, OrePoly) else ()
    if value.terms.keys() <= {one}:
        return value.terms.get(one, RatFun.from_const(value.config.v, 0))
    return None


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

def _parse_with(text, config, line, unknown, **options):
    """The one expression `text` (see `_ExprParser` for the options)."""
    _check(text, line)
    return _ExprParser(text, config, line, unknown, **options).expression()


def _polynomial(config, n, value):
    return DiffPoly.const(config, n, value) if isinstance(value, RatFun) \
        else value


def parse_ratfun(text, config, line=1):
    """Rational expression over the field variables."""
    return _parse_with(text, config, line, "unknown field variable")


def parse_orepoly(text, config, line=1):
    """Operator expression over field variables and d / d1..dm."""
    value = _parse_with(text, config, line, "unknown symbol", deltas=True)
    return OrePoly.from_scalar(config, value) if isinstance(value, RatFun) \
        else value


def parse_diffpoly(text, config, var_names, line=1):
    """Differential polynomial over the declared variables."""
    return _polynomial(config, len(var_names), _parse_with(
        text, config, line, "unknown variable", var_names=var_names))


def parse_generator_vector(text, config, n, line=1):
    """`[oreexpr, ..., oreexpr]` with exactly n coordinates -> ModElement."""
    _check(text, line)
    return _vector(_ExprParser(text, config, line, "unknown symbol",
                               deltas=True), n)


def _vector(r, n, groups=False):
    """The generator vector `[c1, ..., cn]` at `i` of the operator reader
    r, its shape checked before any coordinate is read (`_shape`); an
    empty coordinate is zero.  Each coordinate's coefficients, checked as
    they are read, go straight into the module element's terms."""
    bounds = _shape(r, groups, "generator vector")
    if len(bounds) != n + 1:
        raise r.error(f"expected {n} coordinates, found {len(bounds) - 1}",
                      bounds[0])
    end, terms = r.i, {}
    for comp, (a, r.stop) in enumerate(zip(bounds, bounds[1:])):
        r.to(a + 1)
        if r.at_end():
            continue
        value = r.expression()
        if isinstance(value, RatFun):
            if value:
                terms[comp, r.scalar] = value
        else:
            for exps, c in value.terms.items():
                terms[comp, exps] = c
    r.to(end)
    r.stop = len(r.text)
    return ModElement.zero(r.config, n)._new(terms)


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


def poly_str(terms, names, scale):
    """The polynomial {packed monomial key: integer} in `names` divided by
    the integer `scale`, lex-descending, each coefficient brought to
    lowest terms by one gcd against the scale."""
    nvars, pieces = len(names), []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        g = gcd(c, scale) if scale > 0 else -gcd(c, scale)
        p, q = c // g, scale // g
        pieces.append((p < 0, _times(str(abs(p)) if q == 1 else
                                     f"{abs(p)}/{q}",
                                     _monomial(names, _unpack(key, nvars)))))
    return _signed_sum(pieces)


def ratfun_str(r, config):
    """Printed with a monic denominator: numerator and denominator are both
    divided by the denominator's lex-leading coefficient."""
    names = field_var_names(config)
    num, den = r.num.terms, r.den.terms
    lead = den[max(den)]
    num_s = poly_str(num, names, lead)
    if r.den.is_const():
        return num_s
    den_s = poly_str(den, names, lead)
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
    """Parsed input: field layout plus one of equations+point, a raw
    module or leaders; `parse_input` refuses `module:` beside `vars:`,
    `eqs:` or `point:`, so the rank `n` has one source, and `leaders:`
    beside any of them.

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
        """The rank: `module:` of a raw module, else one per `vars:` name."""
        return self.module_rank or len(self.var_names)

    def ranking(self):
        return Ranking(self.ranking_kind, tuple(range(self.n)))


def parse_input(text):
    """Parse a problem file; `#` starts a comment, sections are line-oriented.
    Each section body is read where it sits in its line, and the lexical
    errors of all the bodies are raised in the order of the file before
    any of them is read."""
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
            config = _read_field(body, lineno, column)
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
            for i, name in enumerate(pf.var_names):
                if not name.isalnum() or not name[0].isalpha():
                    raise ParseError(f"bad variable name {name!r}", lineno)
                if name in _symbols(config):
                    raise ParseError(
                        f"variable name {name!r} collides with a built-in",
                        lineno)
                if name in pf.var_names[:i]:
                    raise ParseError(f"variable {name!r} declared twice",
                                     lineno)
        elif head == "ranking":
            body = body.strip()
            if body not in ("orderly", "elim", "elimination"):
                raise ParseError(f"unknown ranking {body!r}", lineno)
            pf.ranking_kind = "orderly" if body == "orderly" else "elimination"
        elif head == "module":
            pf.module_rank = _read_count(body, lineno, column, "module rank",
                                         MAX_MODULE_RANK)
            if pf.module_rank < 1:
                raise ParseError("module rank must be positive", lineno)
        elif head in ("point", "eqs", "gens", "element", "leaders"):
            _check(body, lineno, column)
            pending[head] = (body, lineno, column)
        else:
            raise ParseError(f"unknown section {head!r}", lineno)

    _finish_sections(pf, pending)
    if "module" in seen and seen & {"vars", "eqs", "point"}:
        raise ParseError("give either equations+point or a raw module, "
                         "not both", 1)
    if "leaders" in seen and seen & {"module", "vars", "eqs", "point"}:
        raise ParseError("give leaders alone, without a module or "
                         "equations+point", pending["leaders"][1])
    return pf


def _read_count(text, line, column, what, limit):
    """The count in a header, read with string methods: one numeral of
    ASCII digits, at most `limit`; `text` starts at `column` of line
    `line`."""
    _check(text, line, column)
    word = text.strip()     # `_check` refuses the other digits
    if not word.isdigit():
        raise ParseError(f"{what} must be an integer", line)
    column += len(text) - len(text.lstrip())
    value = _numeral(word, line, column)
    if value > limit:
        raise ParseError(f"{what} {value}; the limit is {limit}", line,
                         column)
    return value


def _read_field(body, line, column):
    """`Q`, `Q(t)` or `Q(t1, ..., tv)`, then optionally `derivations: m`,
    read with string methods.  A wrong field variable is named by the
    tokens of its part of the parentheses, joined by spaces."""
    m = None
    if "derivations" in body:
        body, _, count = body.partition("derivations:")
        m = _read_count(count, line,
                        column + len(body) + len("derivations:"),
                        "derivation count", MAX_DERIVATIONS)
    _check(body, line, column)
    head, paren, inner = body.strip().partition("(")
    # the last `)` must be a token, not the end of a name's suffix `_(...)`
    if head.rstrip() != "Q" or paren and (inner[-1:] != ")" or "_" in inner[
            inner.rfind(")", 0, -1) + 1:]):
        raise ParseError(f"unrecognized field {body.strip()!r}", line)
    names = [x.strip() for x in inner[:-1].split(",")] if paren else []
    wrong = next((i for i, x in enumerate(names) if x != f"t{i + 1}"), None)
    if wrong is not None and names != ["t"]:
        # the parts before it are one name each, so the variable that the
        # separators outside brackets bound starts where this part does
        r = _Reader(body, line, column)
        r.to(body.index("("))
        a, b = _shape(r, False, "field variables", "()")[wrong:wrong + 2]
        r.to(a + 1)
        words = []
        while r.i < b:
            words.append(r.i)
            r.to(r.end(r.i))
        raise ParseError(f"field variables must be t or t1..tv, got "
                         f"{' '.join(map(r.token, words))!r}", line,
                         column + words[0] if words else None)
    v = len(names)
    if v > MAX_DERIVATIONS:
        raise ParseError(f"{v} field variables; the limit is "
                         f"{MAX_DERIVATIONS}", line)
    m = max(v, 1) if m is None else m
    if m < 1:
        raise ParseError("derivation count must be positive", line)
    if m < v:
        raise ParseError("derivation count below the variable count", line)
    return DiffFieldConfig(num_derivations=m, num_vars=v)


def _finish_sections(pf, pending):
    """Read the deferred sections, given as {head: (body, lineno, column)};
    all their expressions share one work budget."""
    config, n, spent = pf.config, pf.module_rank, [0]

    def reader(head, unknown, **options):
        body, lineno, column = pending[head]
        return _ExprParser(body, config, lineno, unknown, column,
                           spent=spent, **options)

    if "point" in pending:
        r, coords = reader("point", "unknown field variable", stops=","), {}

        def entry():
            at = r.i
            if r.c in ",":
                raise ParseError("point entries look like 'y = expr'", r.line)
            r.to(r.end(at))
            if r.c != "=":
                raise r.error("point entries look like 'y = expr'", at)
            name = r.token(at)
            if name not in pf.var_names:
                raise r.error(f"unknown variable {name!r} in point", at)
            if name in coords:
                raise r.error(f"second coordinate for {name!r} in point", at)
            r.to(r.i + 1)
            coords[name] = r.expression()

        _items(r, entry, True)
        missing = [v for v in pf.var_names if v not in coords]
        if missing:
            raise ParseError(f"point misses coordinates for {missing}",
                             r.line)
        pf.point = VarietyPoint(config, [coords[v] for v in pf.var_names])
    if "eqs" in pending:
        if not pf.var_names:
            raise ParseError("'eqs:' needs a preceding 'vars:' line",
                             pending["eqs"][1])
        r = reader("eqs", "unknown variable", var_names=pf.var_names,
                   stops=";")
        k = len(pf.var_names)
        pf.eqs = _items(r, lambda: _polynomial(config, k, r.expression()))
        if not pf.eqs:
            raise ParseError("empty equation list", r.line)
    for head in ("gens", "element"):
        if head in pending and n is None:
            raise ParseError(f"'{head}:' needs a preceding 'module:' line",
                             pending[head][1])
    if "gens" in pending:
        r = reader("gens", "unknown symbol", deltas=True)
        pf.gens = _items(r, lambda: _vector(r, n, True))
    if "element" in pending:
        pf.element = _vector(reader("element", "unknown symbol",
                                    deltas=True), n)
    if "leaders" in pending:
        body, line, column = pending["leaders"]
        groups = _leader_groups(body, line, column, config.m)
        try:
            pf.leaders = Antichain(config.m, groups)
        except NotAntichain as exc:
            raise NotAntichain(f"line {line}: {exc}") from None


def _items(r, read, empty=False):
    """read() at each item of the list at `i`, between separators; an
    empty item, at a `;` or the end, is skipped unless `empty`."""
    items = []
    while True:
        if empty or r.c not in ";":
            items.append(read())
        if not r.c:
            return items
        r.to(r.i + 1)


def _leader_groups(body, line, column, m):
    """The leader groups of the `leaders:` body at `column` of line `line`,
    read with string methods: `[` leaders between `,` `]` groups between
    `;`, a leader a tuple `(n1, ..., nm)` of m numerals of ASCII digits or,
    with m = 1, a numeral; blanks anywhere between them.  The first group
    that is not so holds the body's first error (`_leader_error`)."""
    groups, at = [], 0
    for group in body.split(";"):
        try:
            groups.append(_plain_group(group.strip(), m))
        except ValueError:      # not plain, or a numeral past the limit
            _leader_error(body, line, column, at, m)
        at += len(group) + 1
    return tuple(groups)


def _plain_group(text, m):
    """The leaders of the group `text`, `[` leaders `]`, as a frozenset, or
    a ValueError.  With no sign in the text, `int` takes a numeral of
    ASCII digits with blanks around it and refuses all else: `_check`
    refuses the other digits, and a `_` that follows no name."""
    if text[:1] != "[" or text[-1:] != "]" or "-" in text or "+" in text:
        raise ValueError
    text, vectors = text[1:-1], set()
    if m == 1:      # numerals, bare or in parentheses
        for entry in text.split(",") if text.strip() else ():
            entry = entry.strip()
            if entry[:1] == "(" and entry[-1:] == ")":
                entry = entry[1:-1]
            vectors.add((int(entry),))
        return frozenset(vectors)
    first, *tuples = text.split("(")
    if first.strip():
        raise ValueError
    # `after` is the comma between tuples, and nothing after the last
    for after, entry in enumerate(tuples, 1 - len(tuples)):
        numerals, close, rest = entry.partition(")")
        numerals = numerals.split(",")
        if not close or rest.strip() != ("," if after else "") \
                or len(numerals) != m:
            raise ValueError
        vectors.add(tuple(map(int, numerals)))
    return frozenset(vectors)


def _leader_error(body, line, column, at, m):
    """Raise the first error of the group at offset `at` of the `leaders:`
    body, the first group that `_plain_group` does not read: its brackets,
    then its empty leaders; then, leader by leader, what follows a tuple's
    first `)`, an empty coordinate, a coordinate that is not one numeral,
    a numeral past the limit and the length.  `_shape` finds the
    separators, and the reader names the token at fault."""
    r = _Reader(body, line, column)

    def unexpected(k):
        return r.error(f"unexpected {r.token(k)!r} in leaders", k)

    def parts(cuts):
        """The spans between the separators `cuts`, none when they hold
        only blanks; an empty one among others is an error at its end."""
        if not body[cuts[0] + 1:cuts[-1]].strip():
            return []
        for a, b in zip(cuts, cuts[1:]):
            if not body[a + 1:b].strip():
                raise unexpected(b)
        return list(zip(cuts, cuts[1:]))

    r.to(at)
    for a, b in parts(_shape(r, True, "leader group")):
        r.to(a + 1)
        start, coords = r.i, [(a, b)]
        if body[start] == "(":
            k = start       # a `)` after a `_` ends that name's suffix
            while (close := body.find(")", k, b)) >= 0 \
                    and "_" in body[k:close]:
                k = close + 1
            if close < 0:
                raise r.error("unterminated leader tuple", start)
            r.to(close + 1)
            if r.i < b:
                raise unexpected(r.i)
            # `_shape` walks to the end of its text, here the tuple's `)`
            t = _Reader(body[:close + 1], line, column)
            t.to(start)
            coords = parts(_shape(t, False, "leader tuple", "()"))
        numerals = []
        for x, y in coords:
            r.to(x + 1)
            k = r.i
            if body[k] not in _DIGITS:
                raise unexpected(k)
            end = y - len(body[k:y].lstrip(_DIGITS))
            r.to(end)
            if r.i < y:
                raise unexpected(r.i)
            numerals.append((k, end))
        vec = tuple(r.numeral(k, end) for k, end in numerals)
        if len(vec) != m:
            raise r.error(f"leader {vec} has length {len(vec)}, expected "
                          f"{m}", start)
