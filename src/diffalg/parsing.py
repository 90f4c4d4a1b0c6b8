"""Input grammar: rational, operator, and differential-polynomial expressions,
plus the line-oriented problem-file format consumed by the CLI.

Expressions use `+ - * / ^`, integer literals, `t`/`t1..tv` for field
variables, `d`/`d1..dm` for derivation operators, and `y'`, `y''` or
`y_(2,1)` for derivatives of the differential indeterminates.

Literals and field variables evaluate in the base field: a subexpression is
a `RatFun` until it meets a `d`/`d_i` or an indeterminate, and the result is
lifted to the operator or polynomial ring once, at the end.  A product of a
field element and an operator goes through the operator's own `__mul__` or
`__rmul__`, so `d*t` is still `t*d + 1`.  Division is by base-field
elements only, negative powers exist only in the base field, and a power of
an operator other than one constant-coefficient term may not pass
`MAX_POWER_ORDER`; each of these is a `ParseError` with its position.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import DivisionByZero, ParseError
from .field import DiffFieldConfig, RatFun
from .ore import OrePoly
from .diffmodule import ModElement, Ranking, orderly_ranking
from .numpoly import Antichain
from .variety import DiffPoly, VarietyPoint


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = set("+-*/^()[],;='")


@dataclass
class Token:
    kind: str  # "num", "name", or the symbol itself
    text: str
    line: int
    column: int


def tokenize(text, line=1, column_offset=0):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        col = i + 1 + column_offset
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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


# ---------------------------------------------------------------------------
# recursive-descent expression parser

# Highest order of a power of an operator, unless the operator is a single
# term with a constant coefficient.  Repeated squaring applies delta to every
# term of the right factor once per order of the left one, so (t*d)^k costs
# about k^2 derivations: k = 100 takes 0.1 s and k = 3000 runs past 10 s.
# With constant coefficients delta only shifts exponents, but (d + 1)^k
# still has k + 1 terms and costs about k^2 products.  A single constant
# term stays one term and has no cap (`d^10000000` is fine).
MAX_POWER_ORDER = 100


class _ExprParser:
    """Parses tokens into values of whatever algebra `resolve`/`const` build.

    `divide` and `power` carry the rules for `/` and `^`; `zero_message` is
    the text of the DivisionByZero raised for a zero divisor.
    """

    def __init__(self, tokens, resolve, const, line, zero_message):
        self.tokens = tokens
        self.pos = 0
        self.resolve = resolve
        self.const = const
        self.line = line
        self.zero_message = zero_message

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

    def done(self):
        return self.pos >= len(self.tokens)

    def parse_expr(self):
        value = self.parse_term()
        while (tok := self.peek()) and tok.kind in ("+", "-"):
            self.next()
            rhs = self.parse_term()
            value = value + rhs if tok.kind == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_unary()
        while (tok := self.peek()) and tok.kind in ("*", "/"):
            self.next()
            rhs = self.parse_unary()
            value = value * rhs if tok.kind == "*" \
                else self.divide(value, rhs, tok)
        return value

    def divide(self, value, rhs, tok):
        divisor = _field_value(rhs)
        if divisor is None:
            raise ParseError("can only divide by a base-field element",
                             tok.line, tok.column)
        if not divisor:
            raise DivisionByZero(self.zero_message)
        return value * divisor.inverse()

    def power(self, base, k, tok):
        """base^k, with negative powers taken in the base field."""
        if isinstance(base, RatFun):
            return base ** k
        if k < 0:
            scalar = _field_value(base)
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
        return base ** k

    def parse_unary(self):
        tok = self.peek()
        if tok and tok.kind == "-":
            self.next()
            return -self.parse_unary()
        if tok and tok.kind == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok.kind == "^":
            self.next()
            sign = 1
            while (t := self.peek()) and t.kind == "-":
                self.next()
                sign = -sign
            exp_tok = self.expect("num")
            return self.power(base, sign * int(exp_tok.text), tok)
        return base

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            return self.const(int(tok.text))
        if tok.kind == "name":
            name, dexps = _split_suffix(tok)
            primes = 0
            while (t := self.peek()) and t.kind == "'":
                self.next()
                primes += 1
            if primes and dexps is not None:
                raise ParseError("mixed prime and multi-index suffix",
                                 tok.line, tok.column)
            if primes:
                dexps = (primes,)
            return self.resolve(name, dexps, tok)
        if tok.kind == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {tok.text!r}",
                         tok.line, tok.column)


def _split_suffix(tok):
    name = tok.text
    if "_(" not in name:
        return name, None
    base, rest = name.split("_(", 1)
    body = rest.rstrip(")")
    try:
        dexps = tuple(int(p) for p in body.split(","))
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


def _parse_with(tokens, resolve, const, line=1,
                zero_message="division by zero in the base field"):
    parser = _ExprParser(tokens, resolve, const, line, zero_message)
    value = parser.parse_expr()
    if not parser.done():
        tok = parser.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return value


# ---------------------------------------------------------------------------
# name tables

def field_var_names(config):
    if config.v == 0:
        return []
    if config.v == 1:
        return ["t"]
    return [f"t{i + 1}" for i in range(config.v)]


def delta_names(config):
    if config.m == 1:
        return ["d"]
    return [f"d{i + 1}" for i in range(config.m)]


def _field_var_index(name, config):
    if config.v == 1 and name in ("t", "t1"):
        return 0
    if config.v >= 2 and name.startswith("t") and name[1:].isdigit():
        i = int(name[1:]) - 1
        if 0 <= i < config.v:
            return i
    return None


def _delta_index(name, config):
    if config.m == 1 and name in ("d", "d1"):
        return 0
    if config.m >= 2 and name.startswith("d") and name[1:].isdigit():
        i = int(name[1:]) - 1
        if 0 <= i < config.m:
            return i
    return None


@functools.lru_cache(maxsize=256)
def _symbol(config, name):
    """The derivation operator or field variable `name` over `config`, or
    None.  Both are immutable values, so every parse may share them; the
    cache holds the names of a few dozen field layouts (m + v each)."""
    i = _delta_index(name, config)
    if i is not None:
        return OrePoly.delta(config, i)
    i = _field_var_index(name, config)
    if i is not None:
        return RatFun.var(config.v, i)
    return None


# ---------------------------------------------------------------------------
# expression entry points

def parse_ratfun(text, config, line=1):
    """Rational expression over the field variables."""

    def resolve(name, dexps, tok):
        if dexps is not None:
            raise ParseError(f"{name!r} cannot carry a derivative suffix",
                             tok.line, tok.column)
        value = _symbol(config, name)
        if not isinstance(value, RatFun):
            raise ParseError(f"unknown field variable {name!r}",
                             tok.line, tok.column)
        return value

    tokens = tokenize(text, line) if isinstance(text, str) else text
    return _parse_with(tokens, resolve,
                       lambda k: RatFun.from_const(config.v, k), line)


def parse_orepoly(text, config, line=1):
    """Operator expression over field variables and d / d1..dm."""

    def resolve(name, dexps, tok):
        if dexps is not None:
            raise ParseError(f"{name!r} cannot carry a derivative suffix",
                             tok.line, tok.column)
        value = _symbol(config, name)
        if value is None:
            raise ParseError(f"unknown symbol {name!r}", tok.line, tok.column)
        return value

    tokens = tokenize(text, line) if isinstance(text, str) else text
    value = _parse_with(tokens, resolve,
                        lambda k: RatFun.from_const(config.v, k), line,
                        zero_message="division by the zero operator")
    if isinstance(value, RatFun):
        return OrePoly.from_scalar(config, value)
    return value


def parse_diffpoly(text, config, var_names, line=1):
    """Differential polynomial over the declared variables."""
    index = {name: i for i, name in enumerate(var_names)}
    n = len(var_names)

    def resolve(name, dexps, tok):
        if name in index:
            exps = dexps if dexps is not None else (0,) * config.m
            if len(exps) == 1 and config.m > 1:
                raise ParseError(
                    f"{name!r} needs a multi-index of length {config.m}",
                    tok.line, tok.column)
            if len(exps) != config.m:
                raise ParseError(
                    f"multi-index of wrong length for {name!r}",
                    tok.line, tok.column)
            return DiffPoly.indeterminate(config, n, index[name], exps)
        if dexps is None:
            value = _symbol(config, name)
            if isinstance(value, RatFun):
                return value
        raise ParseError(f"unknown variable {name!r}", tok.line, tok.column)

    tokens = tokenize(text, line) if isinstance(text, str) else text
    value = _parse_with(tokens, resolve,
                        lambda k: RatFun.from_const(config.v, k), line)
    if isinstance(value, RatFun):
        return DiffPoly.const(config, n, value)
    return value


def parse_generator_vector(text, config, n, line=1):
    """`[oreexpr, ..., oreexpr]` with exactly n coordinates -> ModElement."""
    tokens = tokenize(text, line) if isinstance(text, str) else text
    if not tokens or tokens[0].kind != "[" or tokens[-1].kind != "]":
        raise ParseError("generator vector must be bracketed", line)
    groups = _split_tokens(tokens[1:-1], ",")
    if len(groups) != n:
        raise ParseError(f"expected {n} coordinates, found {len(groups)}",
                         line)
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

def mpoly_str(terms, names):
    """Sum of {exponents: rational coefficient} terms, lex-descending."""
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, reverse=True):
        coeff = terms[exps]
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not parts:
            parts.append(piece if coeff > 0 else "-" + piece)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + piece)
    return " ".join(parts)


def ratfun_str(r, config=None):
    """Printed with a monic denominator: numerator and denominator are both
    divided by the denominator's lex-leading coefficient."""
    names = field_var_names(config) if config is not None \
        else [f"t{i + 1}" for i in range(r.nvars)] if r.nvars > 1 \
        else ["t"]
    _, lead = r.den.lex_leading()
    num, den = ({e: Fraction(c, lead) for e, c in p.terms.items()}
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
    if op.is_zero():
        return "0"
    dnames = delta_names(config)
    parts = []
    keys = sorted(op.terms, key=lambda e: (sum(e), e), reverse=True)
    for exps in keys:
        coeff = op.terms[exps]
        factors = []
        for name, e in zip(dnames, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        cs = ratfun_str(coeff, config)
        negative = cs.startswith("-") and "+" not in cs and " - " not in cs
        if negative:
            cs = cs[1:]
        if not body:
            piece = cs
        elif cs == "1":
            piece = body
        else:
            if " " in cs or ("/" in cs and not cs.replace("/", "").isdigit()):
                cs = f"({cs})"
            piece = f"{cs}*{body}"
        if not parts:
            parts.append(("-" if negative else "") + piece)
        else:
            parts.append(("- " if negative else "+ ") + piece)
    return " ".join(parts)


def vector_str(w, config):
    return "[" + ", ".join(orepoly_str(op, config)
                           for op in w.operator_vector()) + "]"


def modelement_str(w, config, var_names):
    """Human-oriented form: sum of coeff*theta(e_var) pieces."""
    if w.is_zero():
        return "0"
    pieces = []
    rk = orderly_ranking(w.n)
    for (comp, exps) in sorted(w.terms, key=rk.key, reverse=True):
        coeff = w.terms[(comp, exps)]
        order = sum(exps)
        if w.config.m == 1:
            suffix = "'" * order
        else:
            suffix = "_(" + ",".join(str(e) for e in exps) + ")" if order else ""
        name = f"d{var_names[comp]}{suffix}"
        cs = ratfun_str(coeff, config)
        if cs == "1":
            pieces.append(name)
        elif cs == "-1":
            pieces.append(f"-{name}")
        else:
            if " " in cs:
                cs = f"({cs})"
            pieces.append(f"{cs}*{name}")
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


# ---------------------------------------------------------------------------
# problem files

@dataclass
class ProblemFile:
    """Parsed input: field layout plus one of equations+point or raw module."""

    config: DiffFieldConfig
    var_names: list = dc_field(default_factory=list)
    point: VarietyPoint | None = None
    eqs: list | None = None
    module_rank: int | None = None
    gens: list | None = None
    ranking_kind: str = "orderly"
    leaders: Antichain | None = None
    element: ModElement | None = None
    _pending: dict = dc_field(default_factory=dict, repr=False)

    @property
    def n(self):
        if self.module_rank is not None:
            return self.module_rank
        return len(self.var_names)

    def ranking(self):
        n = self.n
        kind = "orderly" if self.ranking_kind == "orderly" else "elimination"
        return Ranking(kind, tuple(range(n)))


def parse_input(text):
    """Parse a problem file; `#` starts a comment, sections are line-oriented."""
    lines = text.splitlines()
    sections = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'section: content'", lineno)
        head, body = line.split(":", 1)
        sections.append((head.strip(), body.strip(), lineno))

    config = None
    for head, body, lineno in sections:
        if head == "field":
            config = _parse_field_line(body, lineno)
    if config is None:
        raise ParseError("missing 'field:' line", 1)

    pf = ProblemFile(config=config)
    seen = set()
    for head, body, lineno in sections:
        if head in seen and head != "field":
            raise ParseError(f"duplicate section {head!r}", lineno)
        seen.add(head)
        if head == "field":
            continue
        elif head == "vars":
            pf.var_names = body.split()
            for name in pf.var_names:
                if not name.isalnum() or not name[0].isalpha():
                    raise ParseError(f"bad variable name {name!r}", lineno)
                if _field_var_index(name, config) is not None \
                        or _delta_index(name, config) is not None:
                    raise ParseError(
                        f"variable name {name!r} collides with a built-in",
                        lineno)
        elif head == "ranking":
            if body not in ("orderly", "elim", "elimination"):
                raise ParseError(f"unknown ranking {body!r}", lineno)
            pf.ranking_kind = "orderly" if body == "orderly" else "elimination"
        elif head == "module":
            try:
                pf.module_rank = int(body)
            except ValueError:
                raise ParseError("module rank must be an integer", lineno)
            if pf.module_rank < 1:
                raise ParseError("module rank must be positive", lineno)
        elif head in ("point", "eqs", "gens", "leaders", "element"):
            pf._pending[head] = (body, lineno)
        else:
            raise ParseError(f"unknown section {head!r}", lineno)

    _finish_sections(pf)
    if (pf.eqs is not None) and (pf.gens is not None):
        raise ParseError("give either equations+point or a raw module, "
                         "not both", 1)
    return pf


def _parse_field_line(body, lineno):
    body = body.strip()
    m_override = None
    if "derivations" in body:
        base, _, mpart = body.partition("derivations:")
        body = base.strip()
        try:
            m_override = int(mpart.strip())
        except ValueError:
            raise ParseError("derivation count must be an integer", lineno)
    if body == "Q":
        v = 0
    elif body.startswith("Q(") and body.endswith(")"):
        inner = body[2:-1]
        names = [p.strip() for p in inner.split(",") if p.strip()]
        if names == ["t"]:
            v = 1
        else:
            for i, name in enumerate(names):
                if name != f"t{i + 1}":
                    raise ParseError(
                        f"field variables must be t or t1..tv, got {name!r}",
                        lineno)
            v = len(names)
    else:
        raise ParseError(f"unrecognized field {body!r}", lineno)
    m = m_override if m_override is not None else max(v, 1)
    if m < v:
        raise ParseError("derivation count below the variable count", lineno)
    return DiffFieldConfig(num_derivations=m, num_vars=v)


def _finish_sections(pf):
    config = pf.config
    pending = pf._pending
    if "point" in pending:
        body, lineno = pending["point"]
        coords = {}
        for part in body.split(","):
            if "=" not in part:
                raise ParseError("point entries look like 'y = expr'", lineno)
            name, expr = part.split("=", 1)
            name = name.strip()
            if name not in pf.var_names:
                raise ParseError(f"unknown variable {name!r} in point", lineno)
            coords[name] = parse_ratfun(expr, config, lineno)
        missing = [v for v in pf.var_names if v not in coords]
        if missing:
            raise ParseError(f"point misses coordinates for {missing}", lineno)
        pf.point = VarietyPoint(config,
                                [coords[v] for v in pf.var_names])
    if "eqs" in pending:
        body, lineno = pending["eqs"]
        if not pf.var_names:
            raise ParseError("'eqs:' needs a preceding 'vars:' line", lineno)
        pf.eqs = [parse_diffpoly(part, config, pf.var_names, lineno)
                  for part in body.split(";") if part.strip()]
        if not pf.eqs:
            raise ParseError("empty equation list", lineno)
    if "gens" in pending:
        body, lineno = pending["gens"]
        if pf.module_rank is None:
            raise ParseError("'gens:' needs a preceding 'module:' line",
                             lineno)
        tokens = tokenize(body, lineno)
        pf.gens = [parse_generator_vector(group, config, pf.module_rank,
                                          lineno)
                   for group in _split_tokens(tokens, ";") if group]
    if "element" in pending:
        body, lineno = pending["element"]
        if pf.module_rank is None:
            raise ParseError("'element:' needs a preceding 'module:' line",
                             lineno)
        pf.element = parse_generator_vector(tokenize(body, lineno), config,
                                            pf.module_rank, lineno)
    if "leaders" in pending:
        body, lineno = pending["leaders"]
        tokens = tokenize(body, lineno)
        comps = []
        for group in _split_tokens(tokens, ";"):
            comps.append(frozenset(_parse_leader_group(group, config, lineno)))
        pf.leaders = Antichain(config.m, tuple(comps))
    del pf._pending
    pf._pending = {}


def _parse_leader_group(tokens, config, lineno):
    """`[(1,1), (0,2)]` -> set of exponent tuples; `[2]` works for m = 1."""
    if not tokens or tokens[0].kind != "[" or tokens[-1].kind != "]":
        raise ParseError("leader group must be bracketed", lineno)
    inner = tokens[1:-1]
    vectors = []
    i = 0
    while i < len(inner):
        tok = inner[i]
        if tok.kind == ",":
            i += 1
            continue
        if tok.kind == "(":
            j = i + 1
            entries = []
            while j < len(inner) and inner[j].kind != ")":
                if inner[j].kind == "num":
                    entries.append(int(inner[j].text))
                elif inner[j].kind != ",":
                    raise ParseError(f"unexpected {inner[j].text!r} in leader",
                                     inner[j].line, inner[j].column)
                j += 1
            if j >= len(inner):
                raise ParseError("unterminated leader tuple", lineno)
            vectors.append(tuple(entries))
            i = j + 1
        elif tok.kind == "num":
            vectors.append((int(tok.text),))
            i += 1
        else:
            raise ParseError(f"unexpected {tok.text!r} in leaders",
                             tok.line, tok.column)
    for vec in vectors:
        if len(vec) != config.m:
            raise ParseError(
                f"leader {vec} has length {len(vec)}, expected {config.m}",
                lineno)
    return vectors
