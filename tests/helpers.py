"""Shared test utilities: random generators and independent oracles.

The oracles deliberately avoid the library's own fast paths: base-field
products and exact quotients are re-derived on exponent tuples, operator
products are re-derived from the closed binomial commutation formula,
staircase counts are re-derived by inclusion-exclusion over subsets of
leaders, staircase counts at one bound and standard terms by testing every
term of bounded order against every leader, characteristic sets by a
completion that reduces every S-pair, module dimensions are recomputed by
exact Gaussian elimination over the base field on truncated derivative
spans, and expressions are evaluated by a tokenizer and parser of this
module's own, with every literal and field variable lifted to the operator
or polynomial ring before any operation.

Reduction, monic scaling, autoreduction and Euclidean division are
re-derived by the generic step, which computes in full the term each step
cancels, where the library drops that term without arithmetic.

Problem files are also read by the token reader that `diffalg.parsing`
replaced (`token_parse_input`): it tokenizes each section body, splits
each list before reading it and checks each group's shape before its
contents, the order in which the library's one reader must report
errors.  It builds values with the library's own builder
(`diffalg.parsing._ExprParser`), since it checks reading, not arithmetic.

Printed values are checked against the printer that `diffalg.parsing`
replaced (`fraction_ratfun_str`, `fraction_numpoly_str`), which divides
each coefficient as a Fraction.

Every oracle and every tool that only the tests use lives here, among them
the action of an operator on a field element (`ore_apply`), formal
derivation in K{y} (`formal_derive`) and the ordinary coefficients of a
numerical polynomial (`monomial_coeffs`); but for that builder, only public
diffalg names are imported.
"""

import functools
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from operator import ge

from diffalg import (Antichain, DiffFieldConfig, DiffPoly, DivisionByZero,
                     MPoly, ModElement, NotAntichain, NumericalPolynomial,
                     OrePoly, ParseError, RatFun, VarietyPoint, leader,
                     ore_mul)
from diffalg.parsing import (MAX_DERIVATIONS, MAX_MODULE_RANK, MAX_NESTING,
                             ProblemFile, _ExprParser, _symbols)


# ---------------------------------------------------------------------------
# random data

def rand_mpoly(rng, nvars, max_deg=2, max_terms=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = rng.randint(-3, 3)
    return MPoly(nvars, terms)


def rand_ratfun(rng, config, frac_prob=0.15, coeff_deg=2, nonzero=False):
    v = config.v
    while True:
        num = rand_mpoly(rng, v, max_deg=coeff_deg)
        den = MPoly.const(v, 1)
        if v and rng.random() < frac_prob:
            cand = rand_mpoly(rng, v, max_deg=1)
            if not cand.is_zero():
                den = cand
        value = RatFun(num, den)
        if value or not nonzero:
            return value


def rand_orepoly(rng, config, max_deg=2, max_terms=2, nonzero=False,
                 frac_prob=0.15, coeff_deg=2):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * config.m
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(config.m)] += 1
            terms[tuple(exps)] = rand_ratfun(rng, config, frac_prob, coeff_deg)
        op = OrePoly(config, terms)
        if op or not nonzero:
            return op


def rand_modelement(rng, config, n, max_ord=3, max_terms=3, nonzero=False,
                    frac_prob=0.15, coeff_deg=2):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            comp = rng.randrange(n)
            exps = [0] * config.m
            for _ in range(rng.randint(0, max_ord)):
                exps[rng.randrange(config.m)] += 1
            terms[(comp, tuple(exps))] = rand_ratfun(rng, config, frac_prob,
                                                     coeff_deg)
        w = ModElement(config, n, terms)
        if w or not nonzero:
            return w


# ---------------------------------------------------------------------------
# module, matrix and point tools

def max_order(w):
    """Highest derivation order among the terms of w; -1 for zero."""
    return max((sum(exps) for _, exps in w.terms), default=-1)


def compare_autoreduced(A, B, rk):
    """'lower' / 'equal' / 'higher': the Ritt-Kolchin rank order on two
    autoreduced sets, tuples of elements sorted by leader, under rk."""
    ua, ub = [leader(f, rk) for f in A], [leader(f, rk) for f in B]
    for la, lb in zip(ua, ub):
        c = rk.compare(la, lb)
        if c:
            return "lower" if c < 0 else "higher"
    if len(ua) == len(ub):
        return "equal"
    return "lower" if len(ua) > len(ub) else "higher"


def ore_apply(f, a):
    """Action of the operator f on a base-field element a: each coefficient
    times the derivative of a that its monomial names."""
    if not isinstance(a, RatFun):
        a = RatFun.from_const(f.config.v, a)
    result = RatFun.from_const(f.config.v, 0)
    for exps, coeff in f.terms.items():
        derived = a
        for i, k in enumerate(exps):
            for _ in range(k):
                derived = derived.derive(i)
        result = result + coeff * derived
    return result


def formal_derive(f, i):
    """delta_i applied in K{y}: Leibniz over the coefficient and each
    indeterminate of every monomial, built from DiffPoly arithmetic."""
    f.config.check_derivation(i)
    result = DiffPoly.zero(f.config, f.n)
    for mono, coeff in f.terms.items():
        result = result + DiffPoly(f.config, f.n, {mono: coeff.derive(i)})
        for (comp, exps), power in mono:
            rest = dict(mono)
            rest[(comp, exps)] -= 1
            raised = list(exps)
            raised[i] += 1
            result = result + DiffPoly(
                f.config, f.n,
                {tuple((k, e) for k, e in rest.items() if e): coeff * power}
            ) * DiffPoly.indeterminate(f.config, f.n, comp, raised)
    return result


def eval_point(w, xs):
    """xi(x) = sum_i xi_i(x_i) for a point with n base-field coordinates."""
    assert len(xs) == w.n
    result = RatFun.from_const(w.config.v, 0)
    for op, x in zip(w.operator_vector(), xs):
        result = result + ore_apply(op, x)
    return result


# ---------------------------------------------------------------------------
# tuple-keyed polynomial oracle
#
# Polynomials in Z[t1..tv] as {exponent tuple: nonzero int} dicts: the sparse
# product and the exact quotient as MPoly computed them before monomials were
# packed into integer keys.

def tuple_mul(f, g):
    """The product of two tuple-keyed polynomials."""
    terms = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def tuple_quotient(f, h):
    """Exact quotient f/h of tuple-keyed polynomials, h nonzero, by sparse
    division in lex order; None if h does not divide f."""
    if not f:
        return {}
    # f = h*q gives deg_i q = deg_i f - deg_i h in every variable
    box = [max(a) - max(b) for a, b in zip(zip(*f), zip(*h))]
    if min(box, default=0) < 0:
        return None
    lead_e = max(h)
    lead_c = h[lead_e]
    rem = dict(f)
    quo = {}
    while rem:
        re = max(rem)
        qc, r = divmod(rem.pop(re), lead_c)
        qe = tuple(a - b for a, b in zip(re, lead_e))
        if r or min(qe, default=0) < 0 or any(map(int.__gt__, qe, box)):
            return None
        quo[qe] = qc
        for e, c in h.items():
            if e != lead_e:
                e = tuple(a + b for a, b in zip(qe, e))
                c = rem.get(e, 0) - qc * c
                if c:
                    rem[e] = c
                else:
                    del rem[e]
    return quo


# ---------------------------------------------------------------------------
# closed-form product oracle

def _sub_indices(theta):
    """All tau with 0 <= tau <= theta componentwise."""
    out = [()]
    for bound in theta:
        out = [tau + (j,) for tau in out for j in range(bound + 1)]
    return out


def ore_mul_binomial(f, g):
    """Product via theta*a = sum_{tau <= theta} C(theta,tau) d^(theta-tau)(a) tau."""
    config = f.config
    terms = {}
    for theta, a in f.terms.items():
        for sigma, b in g.terms.items():
            for tau in _sub_indices(theta):
                coeff = 1
                for ti, si in zip(theta, tau):
                    coeff *= comb(ti, si)
                value = b
                for i, (ti, si) in enumerate(zip(theta, tau)):
                    for _ in range(ti - si):
                        value = value.derive(i)
                if not value:
                    continue
                key = tuple(x + y for x, y in zip(tau, sigma))
                c = terms.get(key)
                add = a * value * coeff
                c = add if c is None else c + add
                if c:
                    terms[key] = c
                else:
                    terms.pop(key, None)
    return OrePoly(config, terms)


# ---------------------------------------------------------------------------
# lifted expression oracle

# One token: a numeral, a name with an optional `_(...)` multi-index, or
# any other character but a blank; `finditer` skips the blanks.
_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*(?:_\([^)]*\))?)|\S")


def _lifted_tokens(text):
    """(kind, text, column) triples, kind "num", "name" or the character."""
    return [({1: "num", 2: "name"}.get(m.lastindex, m.group()), m.group(),
             m.start() + 1) for m in _TOKEN.finditer(text)]


class _LiftedParser:
    """Recursive descent over `+ - * / ^`, numerals and names, with every
    operation run in one ring: `lift` carries numerals and field variables
    into it, `/` is the ring's own `__truediv__`, and a negative power is
    taken only of a lifted scalar, as the lift of its coefficient's power."""

    def __init__(self, tokens, resolve, lift, scalar_key, zero_message):
        self.tokens = tokens
        self.pos = 0
        self.resolve = resolve
        self.lift = lift
        self.scalar_key = scalar_key
        self.zero_message = zero_message

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) \
            else None

    def next(self):
        if self.pos == len(self.tokens):
            raise ParseError("unexpected end of expression", 1)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            sign = self.next()[0]
            rhs = self.term()
            value = value + rhs if sign == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op, _, column = self.next()
            rhs = self.unary()
            value = value * rhs if op == "*" else \
                self.divide(value, rhs, column)
        return value

    def divide(self, value, rhs, column):
        if rhs.is_zero():
            raise DivisionByZero(self.zero_message)
        try:
            return value / rhs
        except ValueError:
            raise ParseError("can only divide by a base-field element",
                             1, column)

    def unary(self):
        if self.peek() == "-":
            self.next()
            return -self.unary()
        if self.peek() == "+":
            self.next()
            return self.unary()
        base = self.atom()
        if self.peek() != "^":
            return base
        column = self.next()[2]
        sign = 1
        while self.peek() == "-":
            self.next()
            sign = -sign
        kind, text, at = self.next()
        if kind != "num":
            raise ParseError(f"expected 'num', found {text!r}", 1, at)
        k = sign * int(text)
        if k >= 0:
            return base ** k
        if base.terms.keys() - {self.scalar_key}:
            raise ParseError("negative power of an expression outside the "
                             "base field", 1, column)
        scalar = base.terms.get(self.scalar_key,
                                RatFun.from_const(base.config.v, 0))
        return self.lift(scalar ** k)

    def atom(self):
        kind, text, column = self.next()
        if kind == "num":
            return self.lift(int(text))
        if kind == "name":
            name, _, index = text.partition("_(")
            dexps = tuple(map(int, index[:-1].split(","))) if index else None
            primes = 0
            while self.peek() == "'":
                self.next()
                primes += 1
            if primes:
                dexps = (primes,)
            return self.resolve(name, dexps, column)
        if kind == "(":
            value = self.expr()
            kind, text, at = self.next()
            if kind != ")":
                raise ParseError(f"expected ')', found {text!r}", 1, at)
            return value
        raise ParseError(f"unexpected token {text!r}", 1, column)


def _symbol_index(name, letter, count):
    """Index of `name` among `count` symbols spelled letter1..letterN, with
    the bare letter for a single one; None for any other name."""
    spelled = {f"{letter}{i + 1}": i for i in range(count)}
    if count == 1:
        spelled[letter] = 0
    return spelled.get(name)


def parse_lifted(text, config, var_names=None):
    """An operator (or, given var_names, a differential polynomial) parsed
    from text or tokens with every literal and field variable lifted to
    that ring first, so that each operation runs in the ring rather than in
    the base field."""
    if var_names is None:
        scalar_key = (0,) * config.m
        zero_message = "division by the zero operator"

        def lift(value):
            return OrePoly.from_scalar(config, value)
    else:
        n = len(var_names)
        scalar_key = ()
        zero_message = "division by zero in the base field"

        def lift(value):
            return DiffPoly.const(config, n, value)

    def resolve(name, dexps, column):
        if var_names is not None and name in var_names:
            exps = dexps if dexps is not None else (0,) * config.m
            return DiffPoly.indeterminate(config, n, var_names.index(name),
                                          exps)
        if var_names is None and dexps is None:
            i = _symbol_index(name, "d", config.m)
            if i is not None:
                return OrePoly.delta(config, i)
        i = _symbol_index(name, "t", config.v)
        if i is not None and dexps is None:
            return lift(RatFun.var(config.v, i))
        raise ParseError(f"unknown symbol {name!r}", 1, column)

    tokens = _lifted_tokens(text) if isinstance(text, str) else text
    parser = _LiftedParser(tokens, resolve, lift, scalar_key, zero_message)
    value = parser.expr()
    if parser.pos < len(tokens):
        _, rest, column = tokens[parser.pos]
        raise ParseError(f"trailing input {rest!r}", 1, column)
    return value


def parse_lifted_vector(text, config, n):
    """`[expr, ..., expr]` with each coordinate parsed by parse_lifted from
    its tokens, split at the commas outside parentheses."""
    groups, depth = [[]], 0
    for tok in _lifted_tokens(text)[1:-1]:
        depth += {"(": 1, ")": -1}.get(tok[0], 0)
        if tok[0] == "," and depth == 0:
            groups.append([])
        else:
            groups[-1].append(tok)
    assert len(groups) == n
    coords = [parse_lifted(group, config) if group else OrePoly.zero(config)
              for group in groups]
    return ModElement.from_operator_vector(coords, n)


# ---------------------------------------------------------------------------
# token reader oracle

_SYMBOLS = set("+-*/^()[],;='")
_DIGITS = set("0123456789")


class Token:
    """One token of problem text, with its 1-based line and column."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind        # "num", "name", or the symbol itself
        self.text = text
        self.line = line
        self.column = column


def tokenize(text, line=1, column=1):
    """The tokens of `text`, found on line `line` with its first character
    at column `column`; every blank, inside a multi-index too, is
    skipped."""
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
            if i < len(text) and text[i] == "_" and i + 1 < len(text) \
                    and text[i + 1] == "(":
                j = text.find(")", i)
                if j < 0:
                    raise ParseError("unterminated multi-index", line, col)
                name += "".join(text[i:j + 1].split())
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
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"numeral of {len(tok.text)} digits; the limit is "
                         f"{sys.get_int_max_str_digits()} digits",
                         tok.line, tok.column) from None


def split_tokens(tokens, sep):
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


class _TokenParser:
    """The descent over a token list; each value is built by the library's
    own builders (`diffalg.parsing._ExprParser`), which here are told each
    token's column as its offset."""

    def __init__(self, tokens, config, line, unknown, spent, **options):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.build = _ExprParser("", config, line, unknown, 0, spent=spent,
                                 **options)
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

    def parse(self):
        value = self.parse_expr()
        if tok := self.peek():
            raise ParseError(f"trailing input {tok.text!r}", tok.line,
                             tok.column)
        return self.build.ring(value)

    def parse_expr(self):
        value = self.parse_term()
        while (tok := self.peek()) and tok.kind in ("+", "-"):
            self.pos += 1
            value = self.build.add(value, self.parse_term(), tok.kind == "-",
                                   tok.column)
        return value

    def parse_term(self):
        value = self.parse_factor()
        while (tok := self.peek()) and tok.kind in ("*", "/"):
            self.pos += 1
            rhs = self.parse_factor()
            op = self.build.multiply if tok.kind == "*" else self.build.divide
            value = op(value, rhs, tok.column)
        return value

    def parse_factor(self):
        negative = False
        while (tok := self.peek()) and tok.kind in ("+", "-"):
            negative ^= tok.kind == "-"
            self.pos += 1
        tok = self.next()
        if tok.kind == "num":
            value = self.build.constant(_int(tok))
        elif tok.kind == "name":
            primes = 0
            while (t := self.peek()) and t.kind == "'":
                self.pos += 1
                primes += 1
            value = self.build.resolve(tok.text, primes, tok.column)
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
            value = self.build.power(value, sign * _int(self.expect("num")),
                                     hat.column)
        return self.build.negate(value) if negative else value


def _token_vector(tokens, config, n, line, spent):
    column = tokens[0].column if tokens else None
    if not tokens or tokens[0].kind != "[" or tokens[-1].kind != "]":
        raise ParseError("generator vector must be bracketed", line, column)
    groups = split_tokens(tokens[1:-1], ",")
    if len(groups) != n:
        raise ParseError(f"expected {n} coordinates, found {len(groups)}",
                         line, column)
    coords = [OrePoly.zero(config) if not group else _operator(
        config, _TokenParser(group, config, line, "unknown symbol", spent,
                             deltas=True).parse()) for group in groups]
    return ModElement.from_operator_vector(coords, n)


def _operator(config, value):
    return OrePoly.from_scalar(config, value) if isinstance(value, RatFun) \
        else value


def _unexpected_in_leaders(tok):
    return ParseError(f"unexpected {tok.text!r} in leaders", tok.line,
                      tok.column)


def _leader_list(tokens, after):
    if not tokens:
        return []
    entries = split_tokens(tokens, ",")
    end = -1
    for entry in entries:
        end += len(entry) + 1
        if not entry:
            raise _unexpected_in_leaders((tokens + [after])[end])
    return entries


def _leader_group(tokens, m, lineno):
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
    return frozenset(vectors)


def _header_number(text, line, column, what, limit):
    tokens = tokenize(text, line, column)
    if len(tokens) != 1 or tokens[0].kind != "num":
        raise ParseError(f"{what} must be an integer", line)
    value = _int(tokens[0])
    if value > limit:
        raise ParseError(f"{what} {value}; the limit is {limit}", line,
                         tokens[0].column)
    return value


def _field_line(body, lineno, column):
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
        groups = split_tokens(tokens[2:-1], ",")
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


def token_parse_input(text):
    """A problem file read as the token reader that `diffalg.parsing`
    replaced read it: each section body tokenized first, each list split
    at its separators outside brackets before any of it is read, and each
    group's shape checked before its contents; values come from the
    library's builders, so every work charge is the library's."""
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
            config = _field_line(body, lineno, column)
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
            pf.module_rank = _header_number(body, lineno, column,
                                            "module rank", MAX_MODULE_RANK)
            if pf.module_rank < 1:
                raise ParseError("module rank must be positive", lineno)
        elif head in ("point", "eqs", "gens", "element", "leaders"):
            pending[head] = (tokenize(body, lineno, column), lineno)
        else:
            raise ParseError(f"unknown section {head!r}", lineno)
    spent = [0]
    if "point" in pending:
        tokens, lineno = pending["point"]
        coords = {}
        for entry in split_tokens(tokens, ","):
            if len(entry) < 2 or entry[1].kind != "=":
                raise ParseError("point entries look like 'y = expr'", lineno,
                                 entry[0].column if entry else None)
            name = entry[0]
            if name.text not in pf.var_names:
                raise ParseError(f"unknown variable {name.text!r} in point",
                                 name.line, name.column)
            if name.text in coords:
                raise ParseError(f"second coordinate for {name.text!r} in "
                                 f"point", name.line, name.column)
            coords[name.text] = _TokenParser(
                entry[2:], config, lineno, "unknown field variable",
                spent).parse()
        missing = [v for v in pf.var_names if v not in coords]
        if missing:
            raise ParseError(f"point misses coordinates for {missing}", lineno)
        pf.point = VarietyPoint(config, [coords[v] for v in pf.var_names])
    if "eqs" in pending:
        tokens, lineno = pending["eqs"]
        if not pf.var_names:
            raise ParseError("'eqs:' needs a preceding 'vars:' line", lineno)
        n = len(pf.var_names)
        pf.eqs = []
        for group in split_tokens(tokens, ";"):
            if group:
                value = _TokenParser(group, config, lineno,
                                     "unknown variable", spent,
                                     var_names=pf.var_names).parse()
                pf.eqs.append(DiffPoly.const(config, n, value)
                              if isinstance(value, RatFun) else value)
        if not pf.eqs:
            raise ParseError("empty equation list", lineno)
    for head in ("gens", "element"):
        if head in pending and pf.module_rank is None:
            raise ParseError(f"'{head}:' needs a preceding 'module:' line",
                             pending[head][1])
    if "gens" in pending:
        tokens, lineno = pending["gens"]
        pf.gens = [_token_vector(group, config, pf.module_rank, lineno, spent)
                   for group in split_tokens(tokens, ";") if group]
    if "element" in pending:
        tokens, lineno = pending["element"]
        pf.element = _token_vector(tokens, config, pf.module_rank, lineno,
                                   spent)
    if "leaders" in pending:
        tokens, lineno = pending["leaders"]
        groups = tuple(_leader_group(group, config.m, lineno)
                       for group in split_tokens(tokens, ";"))
        try:
            pf.leaders = Antichain(config.m, groups)
        except NotAntichain as exc:
            raise NotAntichain(f"line {lineno}: {exc}") from None
    if "module" in seen and seen & {"vars", "eqs", "point"}:
        raise ParseError("give either equations+point or a raw module, "
                         "not both", 1)
    return pf


# ---------------------------------------------------------------------------
# exact Gaussian elimination over the base field

class RowReducer:
    """Incremental row echelon form for sparse vectors over RatFun.

    Vectors are dicts keyed by arbitrary orderable keys; `add` returns True
    when the vector enlarged the span.
    """

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, vec):
        vec = {k: c for k, c in vec.items() if c}
        while vec:
            key = max(vec)
            row = self.pivots.get(key)
            if row is None:
                inv = vec[key].inverse()
                self.pivots[key] = {k: c * inv for k, c in vec.items()}
                return True
            factor = vec[key]
            for k, c in row.items():
                delta = factor * c
                cur = vec.get(k)
                cur = -delta if cur is None else cur - delta
                if cur:
                    vec[k] = cur
                else:
                    vec.pop(k, None)
        return False

    def contains(self, vec):
        """Membership in the current span, without mutating the basis."""
        vec = {k: c for k, c in vec.items() if c}
        while vec:
            key = max(vec)
            row = self.pivots.get(key)
            if row is None:
                return False
            factor = vec[key]
            for k, c in row.items():
                cur = vec.get(k)
                delta = factor * c
                cur = -delta if cur is None else cur - delta
                if cur:
                    vec[k] = cur
                else:
                    vec.pop(k, None)
        return True


# ---------------------------------------------------------------------------
# the Fraction printer that `diffalg.parsing.poly_str` replaced

def _fraction_sum(terms, names):
    """Sum of {exponents: Fraction} terms, lex-descending, as the library
    prints it: `a + b - c`, a bare `-` before a negative first term, a
    coefficient 1 left out and one with a space parenthesized."""
    out = ""
    for exps, c in sorted(terms.items(), reverse=True):
        body = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(names, exps) if e)
        text = str(abs(c))
        if body:
            text = body if text == "1" else \
                f"({text})*{body}" if " " in text else f"{text}*{body}"
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += text
    return out or "0"


def fraction_ratfun_str(r, config):
    """`diffalg.parsing.ratfun_str` on Fractions: numerator and denominator
    divided by the denominator's lex-leading coefficient."""
    names = ["t"] if config.v == 1 else [f"t{i + 1}" for i in range(config.v)]
    _, lead = r.den.lex_leading()
    num, den = ({e: Fraction(c, lead) for e, c in p.exponents().items()}
                for p in (r.num, r.den))
    num_s = _fraction_sum(num, names)
    if r.den.is_const():
        return num_s
    den_s = _fraction_sum(den, names)
    if len(num) > 1 or " " in num_s:
        num_s = f"({num_s})"
    if len(den) > 1 or "*" in den_s or "^" in den_s:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def monomial_coeffs(phi):
    """Ascending ordinary coefficients of a NumericalPolynomial, as
    Fractions: each binomial C(t+i, i) expanded."""
    mono = [Fraction(0)] * max(len(phi.coeffs), 1)
    for i, a in enumerate(phi.coeffs):
        for k, b in enumerate(_binomial_basis_poly(i)):
            mono[k] += a * b
    return mono


def fraction_numpoly_str(phi):
    """`str` of a NumericalPolynomial from its ordinary coefficients
    (`monomial_coeffs`)."""
    return _fraction_sum({(k,): c for k, c in enumerate(monomial_coeffs(phi))
                          if c}, ("t",))


# ---------------------------------------------------------------------------
# inclusion-exclusion and box-walk staircase oracles

def all_pairs_minimal(gens):
    """The set of vectors in `gens` that no other one is componentwise
    below, by testing every pair."""
    gens = set(gens)
    return {g for g in gens
            if not any(h != g and all(a <= b for a, b in zip(h, g))
                       for h in gens)}


def inclusion_exclusion_count(antichain):
    """count_cofilter by inclusion-exclusion over all 2^|E_i| subsets:

        phi(t) = sum_i sum_{S subseteq E_i} (-1)^|S| C(t - |max S| + m, m).
    """
    m = antichain.m
    total = [Fraction(0)] * (m + 1)
    valid_from = 0
    for E in antichain.components:
        vectors = sorted(E)
        for size in range(len(vectors) + 1):
            for subset in combinations(vectors, size):
                join = [0] * m
                for e in subset:
                    join = [max(a, b) for a, b in zip(join, e)]
                c = sum(join)
                valid_from = max(valid_from, c)
                # C(t - c + m, m) = prod_{j=1..m} (t - c + j) / m!
                poly = [Fraction(1)]
                for j in range(1, m + 1):
                    poly = [Fraction(0)] + poly
                    for k in range(len(poly) - 1):
                        poly[k] += (j - c) * poly[k + 1]
                inv = Fraction(-1 if size % 2 else 1, factorial(m))
                for k in range(len(poly)):
                    total[k] += poly[k] * inv
    return from_monomial(total, valid_from)


def _binomial_basis_poly(i):
    """Monomial coefficients (Fractions, ascending) of C(t+i, i)."""
    coeffs = [Fraction(1)]
    for j in range(1, i + 1):
        # multiply by (t + j)
        coeffs = [Fraction(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] += j * coeffs[k + 1]
    inv = Fraction(1, factorial(i))
    return [c * inv for c in coeffs]


def from_monomial(mono, valid_from=0):
    """The NumericalPolynomial with ascending ordinary coefficients mono,
    converted to the binomial basis from the top degree down."""
    mono = list(mono)
    while mono and not mono[-1]:
        mono.pop()
    coeffs = []
    for i in range(len(mono) - 1, -1, -1):
        a_i = mono[i] * factorial(i)
        for k, b in enumerate(_binomial_basis_poly(i)):
            mono[k] -= a_i * b
        coeffs.append(a_i)
    assert not any(mono), "binomial-basis conversion left a remainder"
    return NumericalPolynomial(tuple(reversed(coeffs)), valid_from)


@functools.lru_cache(maxsize=None)
def _weight_bounded(m, t):
    """Exponent tuples in N^m of weight <= t, in lexicographic order; none
    when t < 0, for m = 0 too.  Each box is built once."""
    if t < 0:
        return ()
    prefixes = [((), t)]    # (first coordinates, weight left)
    for _ in range(m):
        prefixes = [(p + (h,), r - h) for p, r in prefixes
                    for h in range(r + 1)]
    return tuple(p for p, _ in prefixes)


def brute_count(antichain, t):
    """count_cofilter at t by testing every term of weight <= t against
    every leader of its component."""
    return sum(not any(all(map(ge, v, e)) for e in E)
               for E in antichain.components
               for v in _weight_bounded(antichain.m, t))


def box_standard_terms(antichain, bound):
    """numpoly.standard_terms by walking every term of weight <= bound and
    testing it against every leader of its component."""
    out = []
    for comp, E in enumerate(antichain.components):
        for exps in _weight_bounded(antichain.m, bound):
            if any(all(map(ge, exps, e)) for e in E):
                continue
            out.append((comp, exps))
    return out


# ---------------------------------------------------------------------------
# generic-step oracles for reduction and division

def reduce_step(current, shifted, term):
    """current minus the multiple of shifted that cancels current's term at
    term, by generic arithmetic: the cancelled coefficient is computed."""
    return current - shifted.scale_left(current.terms[term]
                                        / shifted.terms[term])


def reduce_oracle(w, A, rk):
    """`reduce(w, A, rk)` by `reduce_step`: the highest reducible term first,
    by the first element of A whose leader divides it."""
    active = [(f, leader(f, rk)) for f in A if not f.is_zero()]
    current = w
    while True:
        for term in sorted(current.terms, key=rk.key, reverse=True):
            found = [(f, lead) for f, lead in active if lead[0] == term[0]
                     and all(a <= b for a, b in zip(lead[1], term[1]))]
            if found:
                break
        else:
            return current
        f, lead = found[0]
        shifted = f.apply_theta(tuple(b - a for a, b in zip(lead[1], term[1])))
        current = reduce_step(current, shifted, term)


def monic_oracle(w, rk):
    """w scaled by the inverse of its leading coefficient, every term alike."""
    return w.scale_left(w.terms[leader(w, rk)].inverse()) if w else w


def autoreduce_oracle(S, rk):
    """The elements of `autoreduce(S, rk)` by `reduce_oracle`, restarting
    after every change."""
    elems = [monic_oracle(w, rk) for w in S if not w.is_zero()]
    while True:
        elems.sort(key=lambda w: rk.key(leader(w, rk)))
        for i, w in enumerate(elems):
            r = reduce_oracle(w, elems[:i] + elems[i + 1:], rk)
            if r != w:
                if r:
                    elems[i] = monic_oracle(r, rk)
                else:
                    del elems[i]
                break
        else:
            return tuple(elems)


def divmod_oracle(f, g, side="right"):
    """`ore_divmod(f, g, side)` by operator arithmetic: each step adds a
    monomial to q and subtracts its full product with g from r."""
    dg = g.degree()
    _, lc_g = g.leading()
    q = OrePoly.zero(f.config)
    r = f
    while not r.is_zero() and r.degree() >= dg:
        dr = r.degree()
        _, lc_r = r.leading()
        step = OrePoly.monomial(f.config, (dr - dg,), lc_r / lc_g)
        q = q + step
        r = r - (ore_mul(step, g) if side == "right" else ore_mul(g, step))
    return q, r


# ---------------------------------------------------------------------------
# criterion-free completion oracle

def _lcm_term(f, g, rk):
    (comp, ef) = leader(f, rk)
    (_, eg) = leader(g, rk)
    return (comp, tuple(max(a, b) for a, b in zip(ef, eg)))


def _spair_plain(f, g, rk):
    lt = _lcm_term(f, g, rk)
    sf = f.apply_theta(tuple(a - b for a, b in zip(lt[1], leader(f, rk)[1])))
    sg = g.apply_theta(tuple(a - b for a, b in zip(lt[1], leader(g, rk)[1])))
    return sf.scale_left(sf.terms[lt].inverse()) \
        - sg.scale_left(sg.terms[lt].inverse())


def completion_oracle(gens, rk):
    """Elements of the characteristic set, by a completion with no pair
    criterion: every same-component S-pair is reduced, the pair list is
    re-sorted by the rank of the lcm term each round, and the final basis
    is interreduced by `autoreduce_oracle`; every step is the generic one."""
    basis = list(autoreduce_oracle(gens, rk))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
             if leader(basis[i], rk)[0] == leader(basis[j], rk)[0]]
    while pairs:
        pairs.sort(key=lambda p: rk.key(_lcm_term(basis[p[0]], basis[p[1]],
                                                  rk)))
        i, j = pairs.pop(0)
        nf = reduce_oracle(_spair_plain(basis[i], basis[j], rk), basis, rk)
        if nf.is_zero():
            continue
        basis.append(monic_oracle(nf, rk))
        comp = leader(basis[-1], rk)[0]
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1)
                     if leader(basis[k], rk)[0] == comp)
    return autoreduce_oracle(basis, rk)


# ---------------------------------------------------------------------------
# truncated-span dimension oracle

def multiindices(m, total):
    """All exponent tuples of length m with entries summing to total."""
    if m == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        out.extend((head,) + tail for tail in multiindices(m - 1, total - head))
    return out


def truncated_module_dims(gens, n, config, kmax, extra_pad=2, stable_runs=2):
    """dim_K M_k for k = 0..kmax, M = K[Delta]^n / leftspan(gens).

    dim(N intersect W_k) = rank(span of theta*g) - rank(its projection to
    the coordinates of order > k); the derivative order theta is padded
    until the whole dimension vector stabilizes.
    """
    gens = [g for g in gens if not g.is_zero()]
    m = config.m
    if not gens:
        return [n * comb(k + m, m) for k in range(kmax + 1)]
    maxord = max(max_order(g) for g in gens)
    full = RowReducer()
    projections = [RowReducer() for _ in range(kmax + 1)]
    min_pad = kmax + maxord + extra_pad
    dims = None
    stable = 0
    pad = 0
    while True:
        for theta in multiindices(m, pad):
            for g in gens:
                vec = g.apply_theta(theta).terms
                full.add(dict(vec))
                for k in range(kmax + 1):
                    projections[k].add({term: c for term, c in vec.items()
                                        if sum(term[1]) > k})
        new_dims = [full.rank - projections[k].rank for k in range(kmax + 1)]
        if new_dims == dims:
            stable += 1
        else:
            stable = 0
            dims = new_dims
        if pad >= min_pad and stable >= stable_runs:
            break
        pad += 1
    return [n * comb(k + m, m) - dims[k] for k in range(kmax + 1)]


def in_span_truncated(w, gens, config, extra_pad=3, stable_runs=3):
    """Membership of w in the left span of gens by padded linear algebra."""
    gens = [g for g in gens if not g.is_zero()]
    if w.is_zero():
        return True
    if not gens:
        return False
    reducer = RowReducer()
    answer = None
    stable = 0
    min_pad = max_order(w) + max(max_order(g) for g in gens) + extra_pad
    pad = 0
    while True:
        for theta in multiindices(config.m, pad):
            for g in gens:
                reducer.add(dict(g.apply_theta(theta).terms))
        new_answer = reducer.contains(dict(w.terms))
        if new_answer == answer:
            stable += 1
        else:
            stable = 0
            answer = new_answer
        if answer or (pad >= min_pad and stable >= stable_runs):
            return answer
        pad += 1
